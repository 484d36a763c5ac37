//! Granule placement: where granules go when members join or leave,
//! and the rebalance planner.
//!
//! [`scale_out_moves`] and [`drain_moves`] are the one placement rule
//! for scale-out and scale-in, and [`victims`] the one rule for which
//! requested nodes leave. Both runners call them: the simulator
//! prices each [`GranuleMove`] in virtual time, and `LocalHarness` runs
//! each as a real `MigrationTxn`, so the moves the simulator prices are
//! the moves the protocol executes.
//!
//! The rebalance planner picks hot granules and proposes `MigrationTxn`s
//! that flatten load skew without changing the member count (the
//! diagonal complement to scale-out/in — see *Diagonal Scaling* in
//! PAPERS.md). It is a pure function from an [`Observation`] to a list of
//! [`GranuleMove`]s with two hard guarantees the reconfiguration layer
//! depends on:
//!
//! 1. **Source correctness** — every move's `src` is the granule's owner
//!    in the observation, so the emitted `MigrationTxn` passes the
//!    data-effectiveness check instead of aborting.
//! 2. **Single assignment** — a granule appears in at most one move, so
//!    applying the plan in any order can never create dual ownership
//!    (invariant I3): each granule's chain of custody stays linear.

use crate::observe::Observation;
use marlin_common::{GranuleId, NodeId, RegionId};
use std::collections::BTreeMap;

/// One planned migration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GranuleMove {
    /// The granule to migrate.
    pub granule: GranuleId,
    /// Its current owner (must match the observation).
    pub src: NodeId,
    /// The destination member.
    pub dst: NodeId,
}

/// The scale-out placement rule both runners execute: which granules
/// move when `joining` nodes join `pool`, and where.
///
/// Each pool member sheds its highest-id granules down to the target of
/// (granules the pool owns) / (pool size + joining nodes). The shed
/// granules are dealt round-robin over `joining`, each to the next
/// joining node in its source's region when there is one, so an
/// untargeted geo add never ships a granule out of its home region.
///
/// `owners` lists granule owners in granule order (granules owned
/// outside `pool` are ignored); `pool` and `joining` are `(node, region)`
/// in ascending id order. Moves are streamed to `emit` rather than
/// returned: a scale-out of the paper's size is 100 k moves, and
/// returning them as a `Vec` made `sim_scaleout_exact`'s set-up about
/// 3x slower through glibc's dynamic mmap threshold, not through the
/// planner's own work.
pub fn scale_out_moves(
    owners: impl IntoIterator<Item = (GranuleId, NodeId)>,
    pool: &[(NodeId, RegionId)],
    joining: &[(NodeId, RegionId)],
    mut emit: impl FnMut(GranuleMove),
) {
    if joining.is_empty() {
        return;
    }
    let mut owned: Vec<Vec<GranuleId>> = vec![Vec::new(); pool.len()];
    for (granule, owner) in owners {
        if let Ok(i) = pool.binary_search_by_key(&owner, |&(node, _)| node) {
            owned[i].push(granule);
        }
    }
    let target = owned.iter().map(Vec::len).sum::<usize>() / (pool.len() + joining.len());
    let mut next = 0usize;
    for (&(src, region), granules) in pool.iter().zip(&owned) {
        let excess = granules.len().saturating_sub(target);
        for &granule in granules.iter().rev().take(excess) {
            let pick = (0..joining.len())
                .map(|probe| (next + probe) % joining.len())
                .find(|&cand| joining[cand].1 == region)
                .unwrap_or(next % joining.len());
            next = pick + 1;
            emit(GranuleMove {
                granule,
                src,
                dst: joining[pick].0,
            });
        }
    }
}

/// The drain placement rule both runners execute: where the granules of
/// `victims` go when they leave.
///
/// Granules are walked in `owners` order with one round-robin cursor
/// across all victims. Each lands on the next survivor in its victim's
/// region, or on the next of all survivors when the drain empties that
/// region, so a drain never ships data across regions while local
/// capacity exists.
///
/// `owners` lists granule owners in granule order; `survivors` are
/// `(node, region)` in ascending id order; `victims` may come in any
/// order and repeat. Moves stream to `emit` for the reason
/// [`scale_out_moves`] gives. With no survivor nothing moves.
pub fn drain_moves(
    owners: impl IntoIterator<Item = (GranuleId, NodeId)>,
    victims: &[(NodeId, RegionId)],
    survivors: &[(NodeId, RegionId)],
    mut emit: impl FnMut(GranuleMove),
) {
    if survivors.is_empty() {
        return;
    }
    let pools: Vec<Vec<NodeId>> = victims
        .iter()
        .map(|&(_, region)| {
            let local: Vec<NodeId> = survivors
                .iter()
                .filter(|&&(_, r)| r == region)
                .map(|&(node, _)| node)
                .collect();
            if local.is_empty() {
                survivors.iter().map(|&(node, _)| node).collect()
            } else {
                local
            }
        })
        .collect();
    let mut next = 0usize;
    for (granule, owner) in owners {
        if let Some(v) = victims.iter().position(|&(node, _)| node == owner) {
            let pool = &pools[v];
            emit(GranuleMove {
                granule,
                src: owner,
                dst: pool[next % pool.len()],
            });
            next += 1;
        }
    }
}

/// The victim rule both runners execute: the first occurrence of each
/// requested node that is in `members`, in request order, or nothing if
/// the removal would leave no member. The order is kept because the
/// simulator lays out a drain's worker queues by it; [`drain_moves`]
/// does not depend on it.
#[must_use]
pub fn victims(requested: &[NodeId], members: &[NodeId]) -> Vec<NodeId> {
    let mut kept: Vec<NodeId> = Vec::new();
    for &node in requested {
        if members.contains(&node) && !kept.contains(&node) {
            kept.push(node);
        }
    }
    if kept.len() == members.len() {
        kept.clear();
    }
    kept
}

/// Configuration of [`RebalancePlanner`].
#[derive(Clone, Debug)]
pub struct RebalanceConfig {
    /// Only plan when the hottest node's load exceeds the mean by this
    /// fraction (0.25 = 25% above the mean).
    pub imbalance_threshold: f64,
    /// Cap on moves per plan (each move is a `MigrationTxn`; plans should
    /// stay small enough to finish within one control interval).
    pub max_moves: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            imbalance_threshold: 0.25,
            max_moves: 32,
        }
    }
}

/// Plans hot-granule migrations between live members.
#[derive(Clone, Debug, Default)]
pub struct RebalancePlanner {
    cfg: RebalanceConfig,
}

impl RebalancePlanner {
    /// A planner with the given configuration.
    #[must_use]
    pub fn new(cfg: RebalanceConfig) -> Self {
        RebalancePlanner { cfg }
    }

    /// Propose moves that flatten the observed granule heat.
    ///
    /// Greedy: repeatedly take the hottest unmoved granule on the most
    /// loaded node and send it to the least loaded node, as long as the
    /// transfer strictly reduces the spread and the imbalance threshold is
    /// still exceeded.
    ///
    /// Destinations are region-local where possible: the coolest node in
    /// the *hot node's own region* is preferred, falling back to the
    /// globally coolest only when the hot node is alone in its region. A
    /// granule's demand comes from its home region's clients (§6.5), so
    /// a cross-region move would trade CPU balance for WAN round trips on
    /// every access — the same locality discipline scale-outs and drains
    /// follow.
    #[must_use]
    pub fn plan(&self, obs: &Observation) -> Vec<GranuleMove> {
        let live: Vec<NodeId> = obs
            .node_loads
            .iter()
            .filter(|n| n.alive)
            .map(|n| n.node)
            .collect();
        if live.len() < 2 || obs.granule_loads.is_empty() {
            return Vec::new();
        }
        let region_of: BTreeMap<NodeId, RegionId> = obs
            .node_loads
            .iter()
            .filter(|n| n.alive)
            .map(|n| (n.node, n.region))
            .collect();

        // Per-node heat from the sampled granules; every live node starts
        // at zero so cold nodes are visible as destinations.
        let mut node_heat: BTreeMap<NodeId, f64> = live.iter().map(|&n| (n, 0.0)).collect();
        // Hottest-first queue of candidate granules per node.
        let mut candidates: BTreeMap<NodeId, Vec<(f64, GranuleId)>> = BTreeMap::new();
        for g in &obs.granule_loads {
            // Granules owned by dead/unknown nodes are recovery's problem,
            // not the rebalancer's.
            let Some(heat) = node_heat.get_mut(&g.owner) else {
                continue;
            };
            *heat += g.load;
            candidates
                .entry(g.owner)
                .or_default()
                .push((g.load, g.granule));
        }
        for list in candidates.values_mut() {
            list.sort_by(|a, b| b.0.total_cmp(&a.0));
        }

        let mean: f64 = node_heat.values().sum::<f64>() / node_heat.len() as f64;
        if mean <= 0.0 {
            return Vec::new();
        }
        let trigger = mean * (1.0 + self.cfg.imbalance_threshold);

        let mut moves: Vec<GranuleMove> = Vec::new();
        while moves.len() < self.cfg.max_moves {
            let (&hot, &hot_heat) = node_heat
                .iter()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("non-empty");
            if hot_heat <= trigger {
                break;
            }
            // Coolest destination in the hot node's region, else the
            // globally coolest other node.
            let hot_region = region_of.get(&hot);
            let cool_pick = node_heat
                .iter()
                .filter(|&(&n, _)| n != hot && region_of.get(&n) == hot_region)
                .min_by(|a, b| a.1.total_cmp(b.1))
                .or_else(|| {
                    node_heat
                        .iter()
                        .filter(|&(&n, _)| n != hot)
                        .min_by(|a, b| a.1.total_cmp(b.1))
                });
            let Some((&cool, &cool_heat)) = cool_pick else {
                break;
            };
            // Hottest granule on the hot node that still helps: moving it
            // must not push the destination past the source.
            let Some(list) = candidates.get_mut(&hot) else {
                break;
            };
            let Some(pos) = list
                .iter()
                .position(|(load, _)| cool_heat + load < hot_heat - load)
            else {
                break;
            };
            let (load, granule) = list.remove(pos);
            *node_heat.get_mut(&hot).expect("hot exists") -= load;
            *node_heat.get_mut(&cool).expect("cool exists") += load;
            moves.push(GranuleMove {
                granule,
                src: hot,
                dst: cool,
            });
        }
        moves
    }
}

/// Check the planner's structural guarantees on a batch of moves.
///
/// Returns an error naming the first violation: a granule assigned twice
/// (would race to dual ownership), a self-move, or a move whose source
/// disagrees with the observation's ownership.
pub fn validate_moves(moves: &[GranuleMove], obs: &Observation) -> Result<(), String> {
    let owners: BTreeMap<GranuleId, NodeId> = obs
        .granule_loads
        .iter()
        .map(|g| (g.granule, g.owner))
        .collect();
    let mut seen: BTreeMap<GranuleId, ()> = BTreeMap::new();
    for m in moves {
        if m.src == m.dst {
            return Err(format!("self-move of {:?}", m.granule));
        }
        if seen.insert(m.granule, ()).is_some() {
            return Err(format!("{:?} assigned twice in one plan", m.granule));
        }
        match owners.get(&m.granule) {
            Some(&owner) if owner == m.src => {}
            Some(&owner) => {
                return Err(format!(
                    "{:?} moved from {:?} but owned by {owner:?}",
                    m.granule, m.src
                ));
            }
            None => return Err(format!("{:?} not present in the observation", m.granule)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{GranuleLoad, NodeLoad};

    fn skewed_observation() -> Observation {
        // Node 0 holds four hot granules; nodes 1 and 2 are cold.
        let mut obs = Observation::uniform(0, 3, 0.5);
        obs.node_loads = (0..3)
            .map(|i| NodeLoad {
                node: NodeId(i),
                alive: true,
                utilization: if i == 0 { 0.95 } else { 0.2 },
                owned_granules: if i == 0 { 4 } else { 1 },
                ..NodeLoad::default()
            })
            .collect();
        obs.granule_loads = vec![
            GranuleLoad {
                granule: GranuleId(0),
                owner: NodeId(0),
                load: 40.0,
            },
            GranuleLoad {
                granule: GranuleId(1),
                owner: NodeId(0),
                load: 30.0,
            },
            GranuleLoad {
                granule: GranuleId(2),
                owner: NodeId(0),
                load: 20.0,
            },
            GranuleLoad {
                granule: GranuleId(3),
                owner: NodeId(0),
                load: 10.0,
            },
            GranuleLoad {
                granule: GranuleId(4),
                owner: NodeId(1),
                load: 5.0,
            },
            GranuleLoad {
                granule: GranuleId(5),
                owner: NodeId(2),
                load: 5.0,
            },
        ];
        obs
    }

    #[test]
    fn victims_keeps_requested_members_once_in_order_and_never_all() {
        let n = |ids: &[u32]| ids.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
        let table: [(&[u32], &[u32], &[u32]); 7] = [
            // A non-member is dropped.
            (&[1, 7], &[0, 1, 2, 3], &[1]),
            // A repeat keeps its first occurrence.
            (&[2, 1, 2], &[0, 1, 2, 3], &[2, 1]),
            // Request order is kept, not sorted.
            (&[3, 0, 2], &[0, 1, 2, 3], &[3, 0, 2]),
            // Naming every member would empty the cluster: nothing leaves.
            (&[3, 2, 1, 0], &[0, 1, 2, 3], &[]),
            (&[0, 0], &[0], &[]),
            // With no members nothing is a victim.
            (&[0, 1], &[], &[]),
            (&[], &[0, 1, 2, 3], &[]),
        ];
        for (requested, members, want) in table {
            assert_eq!(
                victims(&n(requested), &n(members)),
                n(want),
                "{requested:?} of {members:?}"
            );
        }
    }

    #[test]
    fn plans_flatten_skew_and_validate() {
        let planner = RebalancePlanner::default();
        let obs = skewed_observation();
        let moves = planner.plan(&obs);
        assert!(!moves.is_empty(), "skew above threshold must produce moves");
        validate_moves(&moves, &obs).expect("planner guarantees hold");
        assert!(
            moves.iter().all(|m| m.src == NodeId(0)),
            "only the hot node sheds"
        );
    }

    #[test]
    fn never_assigns_a_granule_twice() {
        let planner = RebalancePlanner::new(RebalanceConfig {
            imbalance_threshold: 0.0,
            max_moves: 100,
        });
        let obs = skewed_observation();
        let moves = planner.plan(&obs);
        let mut granules: Vec<GranuleId> = moves.iter().map(|m| m.granule).collect();
        granules.sort();
        granules.dedup();
        assert_eq!(
            granules.len(),
            moves.len(),
            "each granule moved at most once"
        );
    }

    #[test]
    fn balanced_load_produces_no_moves() {
        let planner = RebalancePlanner::default();
        let mut obs = Observation::uniform(0, 3, 0.5);
        obs.granule_loads = (0..6)
            .map(|g| GranuleLoad {
                granule: GranuleId(g),
                owner: NodeId((g % 3) as u32),
                load: 10.0,
            })
            .collect();
        assert!(planner.plan(&obs).is_empty());
    }

    #[test]
    fn dead_nodes_are_neither_sources_nor_destinations() {
        let planner = RebalancePlanner::new(RebalanceConfig {
            imbalance_threshold: 0.0,
            max_moves: 100,
        });
        let mut obs = skewed_observation();
        obs.node_loads[2].alive = false;
        let moves = planner.plan(&obs);
        assert!(moves
            .iter()
            .all(|m| m.dst != NodeId(2) && m.src != NodeId(2)));
    }

    #[test]
    fn validation_rejects_stale_sources_and_duplicates() {
        let obs = skewed_observation();
        let stale = vec![GranuleMove {
            granule: GranuleId(0),
            src: NodeId(1),
            dst: NodeId(2),
        }];
        assert!(validate_moves(&stale, &obs).is_err());
        let dup = vec![
            GranuleMove {
                granule: GranuleId(0),
                src: NodeId(0),
                dst: NodeId(1),
            },
            GranuleMove {
                granule: GranuleId(0),
                src: NodeId(0),
                dst: NodeId(2),
            },
        ];
        assert!(validate_moves(&dup, &obs).is_err());
    }

    #[test]
    fn destinations_prefer_the_hot_nodes_region() {
        use marlin_common::RegionId;
        // Node 0 (region 0) is hot; node 1 (region 0) is cool; node 2
        // (region 1) is even cooler globally. Moves must stay in region
        // 0 — a cross-region move would put the granule's home-region
        // demand behind WAN round trips.
        let planner = RebalancePlanner::new(RebalanceConfig {
            imbalance_threshold: 0.0,
            max_moves: 100,
        });
        let mut obs = skewed_observation();
        obs.node_loads[0].region = RegionId(0);
        obs.node_loads[1].region = RegionId(0);
        obs.node_loads[2].region = RegionId(1);
        // Make region 1's node the global minimum.
        obs.granule_loads.retain(|g| g.owner != NodeId(2));
        let moves = planner.plan(&obs);
        assert!(!moves.is_empty());
        assert!(
            moves.iter().all(|m| m.dst == NodeId(1)),
            "moves must land on the region-local cool node: {moves:?}"
        );
        // With no same-region alternative the planner falls back to the
        // global coolest instead of stalling.
        let mut obs = skewed_observation();
        obs.node_loads[0].region = RegionId(2);
        let moves = planner.plan(&obs);
        assert!(!moves.is_empty(), "lone-region hot node still sheds");
        assert!(moves.iter().all(|m| m.dst != NodeId(0)));
    }

    #[test]
    fn respects_the_move_cap() {
        let planner = RebalancePlanner::new(RebalanceConfig {
            imbalance_threshold: 0.0,
            max_moves: 2,
        });
        let moves = planner.plan(&skewed_observation());
        assert!(moves.len() <= 2);
    }
}
