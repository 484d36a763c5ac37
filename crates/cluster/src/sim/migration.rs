//! Reconfiguration: actuating controller decisions, migration plans
//! (scale-out join slots and balanced task lists, drains), the migration
//! worker — Marlin's `MigrationTxn` is `MigrationDriver`, run by the
//! effect pricer; the baselines write through their service — and
//! releasing drained nodes.

use super::protocol::Coordinator;
use super::*;
use marlin_autoscaler::rebalance::{drain_moves, scale_out_moves, victims};
use marlin_common::{CoordError, TxnId};
use marlin_core::drivers::MigrationDriver;
use std::collections::BTreeSet;

/// What a migration's data-effectiveness read finds at the source.
pub(super) enum SourceCheck {
    /// Another node owns the granule now: plans from different control
    /// ticks may overlap, and the task is stale.
    Moved(u32),
    /// A user transaction holds the granule: NO_WAIT aborts the
    /// migration.
    Busy,
    /// The source owns the granule and nothing holds it.
    Free,
}

/// How one migration task's attempt ended, and when.
enum MigrationEnd {
    /// The ownership change committed.
    Committed(Nanos),
    /// The granule had moved: skip the task.
    Stale(Nanos),
    /// Aborted: retry the task after the granule's lock horizon.
    Retry(Nanos),
}

/// A reconfiguration, ordered and waiting to start. Whatever its kind,
/// its moves run on destination-side worker threads ("the number of
/// concurrent migration transactions is increased as the number of
/// compute nodes increases", §6.1.4), laid out by one builder
/// ([`ClusterSim::lay_out`]). A move's `src` must own its granule when
/// the move runs; otherwise it is stale.
///
/// Scale-outs and drains are planned at *start*, against the ownership
/// of that moment: at order time only the joining ids are minted (so
/// observations can report the capacity as pending) or the victims
/// marked leaving. Under a real provisioning lead any migration that
/// commits during the wait would invalidate moves planned at order time
/// (the data-effectiveness check skips them as stale), leaving the join
/// under-balanced and a subset of old nodes hot for the rest of the run.
pub(super) enum Plan {
    /// A scale-out: `slots` join when the plan starts, `threads_per`
    /// workers each.
    Join {
        /// The joining nodes' fresh ids.
        slots: Vec<u32>,
        threads_per: u32,
        /// Placement request the order carried.
        region: Option<RegionId>,
        /// When the capacity was ordered (the provision-lead trace span
        /// runs from here to the plan start).
        ordered_at: Nanos,
    },
    /// A scale-in: `victims`, in request order, drain onto the other live
    /// nodes, `threads_per` workers each.
    Drain { victims: Vec<u32>, threads_per: u32 },
    /// Moves validated against ownership when ordered, one worker per
    /// distinct destination.
    Rebalance(Vec<GranuleMove>),
}

impl Plan {
    /// The nodes this plan will join (observations report them as
    /// pending capacity).
    pub(super) fn joining(&self) -> &[u32] {
        match self {
            Plan::Join { slots, .. } => slots,
            _ => &[],
        }
    }
}

impl ClusterSim {
    /// Actuate one controller decision at virtual time `at`, the one way
    /// into the simulator's reconfiguration. A scale-out mints fresh node
    /// ids, a scale-in takes its victims from [`victims`], and rebalance
    /// moves are re-validated against current ownership (the planner's
    /// observation may be a control interval old). Each becomes a plan;
    /// plans run one at a time, in the order they fire.
    ///
    /// A scale-out's plan *starts* — the new nodes (in `region`, when
    /// given, where only that region's members shed granules onto them)
    /// join the membership, begin to be billed, and the migrations onto
    /// them launch — only after [`SimParams::provision_lead_time`] has
    /// elapsed past `at`: ordering capacity is not the same as having it.
    /// With the default lead of 0 the behavior (and every event
    /// timestamp) is exactly the historical instant-capacity one.
    ///
    /// `threads_per_node` must be positive: a join or drain without
    /// workers would never move its data.
    pub fn apply_action(&mut self, at: Nanos, action: &ScaleAction, threads_per_node: u32) {
        assert!(threads_per_node > 0, "a migration needs a worker thread");
        let prof = self.profiler.start();
        if self.tracer.is_enabled() {
            let (name, count, region) = match action {
                ScaleAction::AddNodes { count, region } => (
                    "add_nodes",
                    i64::from(*count),
                    region.map_or(-1, |r| i64::from(r.0)),
                ),
                ScaleAction::RemoveNodes { victims } => ("remove_nodes", victims.len() as i64, -1),
                ScaleAction::Rebalance { moves } => ("rebalance", moves.len() as i64, -1),
            };
            self.tracer
                .instant_args("policy", name, at, [("count", count), ("region", region)]);
        }
        match action {
            &ScaleAction::AddNodes { count, region } if count > 0 => {
                let lead = self.params.provision_lead_time;
                let ready_at = at + lead + std::mem::take(&mut self.lead_extra_once);
                let slots = self.allocate_join_slots(count, region);
                let args = [
                    ("count", i64::from(count)),
                    ("lead_ms", (lead / 1_000_000) as i64),
                ];
                self.tracer
                    .instant_args("provision", "scale_out_ordered", at, args);
                let plan = Plan::Join {
                    slots,
                    threads_per: threads_per_node,
                    region,
                    ordered_at: at,
                };
                self.schedule_plan(ready_at, plan);
            }
            // An order for no nodes is no plan.
            ScaleAction::AddNodes { .. } => {}
            ScaleAction::RemoveNodes { victims } => {
                self.schedule_scale_in(at, victims, threads_per_node);
            }
            ScaleAction::Rebalance { moves } => {
                let moves: Vec<GranuleMove> = moves
                    .iter()
                    .filter(|m| {
                        let g = m.granule.0 as usize;
                        g < self.granules.len()
                            && self.granules[g].owner == m.src.0
                            && m.dst != m.src
                            && (m.dst.0 as usize) < self.nodes.len()
                            && self.nodes[m.dst.0 as usize].alive
                    })
                    .copied()
                    .collect();
                if !moves.is_empty() {
                    self.schedule_plan(at, Plan::Rebalance(moves));
                }
            }
        }
        self.profiler.record("actuate", prof);
        self.profiler.record_total(prof);
    }

    /// Order a scale-in at `at`: the nodes [`victims`] keeps of
    /// `requested`, the live nodes not leaving being the members, leave
    /// from now on; each is released once its drain has emptied it.
    pub(crate) fn schedule_scale_in(&mut self, at: Nanos, requested: &[NodeId], threads_per: u32) {
        assert!(threads_per > 0, "a migration needs a worker thread");
        let members: Vec<NodeId> = (0..self.nodes.len() as u32)
            .filter(|&i| self.nodes[i as usize].alive && !self.nodes[i as usize].leaving)
            .map(NodeId)
            .collect();
        let victims: Vec<u32> = victims(requested, &members).iter().map(|v| v.0).collect();
        for &v in &victims {
            self.nodes[v as usize].leaving = true;
        }
        if !victims.is_empty() {
            self.schedule_plan(
                at,
                Plan::Drain {
                    victims,
                    threads_per,
                },
            );
        }
    }

    /// Provision the nodes a scale-out will activate, each with a fresh
    /// id: a joining node is a new member with its own CPU, GLog and
    /// trackers (`LocalHarness` mints its ids the same way). With a
    /// `target_region`, the joining nodes are placed in that region.
    fn allocate_join_slots(&mut self, new_nodes: u32, target_region: Option<RegionId>) -> Vec<u32> {
        let regions = self.params.regions.regions() as u16;
        (0..new_nodes)
            .map(|_| {
                let idx = self.nodes.len() as u32;
                self.nodes.push(NodeSim {
                    region: target_region.unwrap_or(RegionId(idx as u16 % regions)),
                    cpu: NodeCpu::new(self.params.cpu_model, self.params.cpu_workers),
                    glog: SimLog::default(),
                    tracker: LsnTracker::new(),
                    append_station: CpuStation::new(1),
                    alive: false, // activates when the plan starts
                    leaving: false,
                });
                self.owned.push(0);
                idx
            })
            .collect()
    }

    /// Every move `plan` makes, in the order its placement rule emits
    /// them, against *current* ownership. A scale-out's are
    /// [`scale_out_moves`]'s with the live nodes as the pool; with a
    /// target region only that region's live members shed granules, so a
    /// hot region's scale-out never drags another region's data across
    /// the WAN. A drain's are [`drain_moves`]'s onto the other live nodes,
    /// so the geo setting never ships a drained granule across the WAN
    /// while local capacity exists.
    fn plan_moves(&self, plan: &Plan, emit: impl FnMut(GranuleMove)) {
        let live = (0..self.nodes.len() as u32).filter(|&i| self.nodes[i as usize].alive);
        match plan {
            Plan::Join { slots, region, .. } => {
                let in_region =
                    |i: &u32| region.is_none_or(|r| self.nodes[*i as usize].region == r);
                let pool = self.placed(live.filter(in_region));
                let joining = self.placed(slots.iter().copied());
                scale_out_moves(self.owner_list(), &pool, &joining, emit);
            }
            Plan::Drain { victims, .. } => {
                let survivors = self.placed(live.filter(|i| !victims.contains(i)));
                let leaving = self.placed(victims.iter().copied());
                drain_moves(self.owner_list(), &leaving, &survivors, emit);
            }
            Plan::Rebalance(moves) => moves.iter().copied().for_each(emit),
        }
    }

    /// Lay out `plan`'s worker queues: `threads_per` workers per lead —
    /// each joining node of a scale-out, each victim of a drain in
    /// request order, each distinct destination of a rebalance (one
    /// worker each) in ascending order — with each lead's moves dealt
    /// round-robin over its workers in emission order. The cursors are
    /// per lead: a global one would alias with the round-robin ownership
    /// pattern and starve most workers. A plan without workers still
    /// runs one, empty. The placement rules are pure, so the moves are
    /// emitted twice: once to count each queue, once to fill it at its
    /// exact size.
    pub(super) fn lay_out(&self, plan: &Plan) -> Vec<Vec<GranuleMove>> {
        let (leads, threads, by_src): (Vec<u32>, u32, bool) = match plan {
            Plan::Join {
                slots, threads_per, ..
            } => (slots.clone(), *threads_per, false),
            Plan::Drain {
                victims,
                threads_per,
            } => (victims.clone(), *threads_per, true),
            Plan::Rebalance(moves) => {
                let dsts: BTreeSet<u32> = moves.iter().map(|m| m.dst.0).collect();
                (dsts.into_iter().collect(), 1, false)
            }
        };
        let threads = threads as usize;
        // The lead whose workers take `m`.
        let lead = |m: &GranuleMove| {
            let node = if by_src { m.src.0 } else { m.dst.0 };
            leads.iter().position(|&l| l == node)
        };
        let mut dealt = vec![0usize; leads.len()];
        self.plan_moves(plan, |m| lead(&m).into_iter().for_each(|d| dealt[d] += 1));
        // Worker `k` of a lead with `n` moves takes its `k`th, then every
        // `threads`th after it.
        let mut queues: Vec<Vec<GranuleMove>> = dealt
            .iter()
            .flat_map(|&n| (0..threads).map(move |k| (n + threads - 1 - k) / threads))
            .map(Vec::with_capacity)
            .collect();
        if queues.is_empty() {
            queues.push(Vec::new());
        }
        dealt.fill(0);
        self.plan_moves(plan, |m| {
            if let Some(d) = lead(&m) {
                queues[d * threads + dealt[d] % threads].push(m);
                dealt[d] += 1;
            }
        });
        queues
    }

    /// `nodes` with their regions, as the placement rules take them.
    fn placed(&self, nodes: impl Iterator<Item = u32>) -> Vec<(NodeId, RegionId)> {
        nodes
            .map(|i| (NodeId(i), self.nodes[i as usize].region))
            .collect()
    }

    /// Every granule's owner, in granule order.
    fn owner_list(&self) -> impl DoubleEndedIterator<Item = (GranuleId, NodeId)> + Clone + '_ {
        self.granules
            .iter()
            .enumerate()
            .map(|(g, gran)| (GranuleId(g as u64), NodeId(gran.owner)))
    }

    /// Order `plan` to start at `at`.
    fn schedule_plan(&mut self, at: Nanos, plan: Plan) {
        let id = self.next_plan;
        self.next_plan += 1;
        self.pending_plans.push((id, plan));
        self.queue
            .schedule_at(at, ActorId(0), Event::StartPlan { plan: id });
    }

    /// Start the plan a `StartPlan` event names, or hold it while another
    /// plan's workers are active: a drain's snapshot of the owner map then
    /// holds every earlier move, and a scale-out's pool every earlier join
    /// and release, as on `LocalRunner`. An id stays stored until its
    /// plan starts, which it does once.
    pub(super) fn start_or_hold(&mut self, now: Nanos, plan: u64) {
        if self.active_workers > 0 {
            self.held.push_back(plan);
        } else if let Some(i) = self.pending_plans.iter().position(|&(id, _)| id == plan) {
            let (_, plan) = self.pending_plans.swap_remove(i);
            self.start_plan(now, plan);
        }
    }

    /// Lay out `plan`'s workers against current ownership, apply what its
    /// kind changes at the start — a drain's victims are released once
    /// empty; a scale-out's nodes join, and with a rebalance's, the
    /// membership is billed from now on — and launch the workers.
    fn start_plan(&mut self, now: Nanos, plan: Plan) {
        let build = self.profiler.start();
        let queues = self.lay_out(&plan);
        let tasks = queues.iter().map(Vec::len).sum::<usize>() as i64;
        if let Plan::Drain { victims, .. } = plan {
            self.profiler.record("plan:drain", build);
            let args = [("victims", victims.len() as i64), ("tasks", tasks)];
            self.tracer
                .instant_args("migration", "drain_started", now, args);
            self.draining.extend(victims);
        } else {
            let joining = plan.joining();
            let nodes = joining.len() as i64;
            if let Plan::Join { ordered_at, .. } = plan {
                self.profiler.record("plan:build", build);
                // Order → provision → join: the lead the capacity order
                // waited before the nodes could join.
                let args = [("nodes", nodes), ("", 0)];
                self.tracer
                    .span_args("provision", "provision_lead", ordered_at, now, args);
            }
            let args = [("tasks", tasks), ("joining", nodes)];
            self.tracer
                .instant_args("migration", "plan_started", now, args);
            self.accrue_region_time(now);
            for &slot in joining {
                self.nodes[slot as usize].alive = true;
            }
            let live = self.live_nodes();
            self.cost.advance(now, live);
            self.metrics.node_count.push(now, f64::from(live));
        }
        // The workers cover this plan alone: plans run one at a time.
        self.workers = queues.into_iter().map(|queue| (queue, 0)).collect();
        self.active_workers = self.workers.len() as u32;
        for worker in 0..self.active_workers {
            self.queue
                .schedule(0, ActorId(0), Event::MigWorker { worker });
        }
    }

    pub(super) fn handle_mig_worker(&mut self, now: Nanos, worker: u32) {
        let w = worker as usize;
        let (ref queue_tasks, cursor) = self.workers[w];
        if cursor >= queue_tasks.len() {
            // Worker done: its queue goes, its cursor stays as the count
            // of tasks it ran. If a drain finished, release nodes.
            self.workers[w].0 = Vec::new();
            if !self.draining.is_empty() {
                self.queue.schedule(0, ActorId(0), Event::ReleaseDrained);
            }
            // The plan is done with its last worker: release what it
            // drained, so the next plan neither counts the victims as
            // survivors nor plans moves onto them, and start that plan.
            self.active_workers -= 1;
            while self.active_workers == 0 {
                let Some(next) = self.held.pop_front() else {
                    // Idle: no plan runs or waits, so no worker state is
                    // kept.
                    self.workers = Vec::new();
                    break;
                };
                self.release_drained(now);
                self.start_or_hold(now, next);
            }
            return;
        }
        let task = queue_tasks[cursor];
        let (g, src, dst) = (
            task.granule.0 as usize,
            task.src.0 as usize,
            task.dst.0 as usize,
        );
        let end = if !self.nodes[dst].alive {
            // The destination was released after this task was planned (a
            // later drain emptied it): it coordinates nothing, and no
            // granule may land on it.
            MigrationEnd::Stale(now)
        } else if matches!(self.backend, CoordBackend::Marlin) {
            // MigrationTxn over MarlinCommit, coordinated by the
            // destination (§4.4.1), run by the pricer.
            let txn = TxnId::new(task.dst, self.next_txn_seq());
            let started = MigrationDriver::new(txn, task.src, task.dst, vec![task.granule]);
            match self.run_driver(Coordinator::Node(dst), started, now) {
                (Some(Ok(())), at) => MigrationEnd::Committed(at),
                (Some(Err(CoordError::WrongOwner { .. })), at) => MigrationEnd::Stale(at),
                // NO_WAIT at the source; a lost CAS or a NO vote, which
                // no run produces today, retries the same way.
                (_, at) => MigrationEnd::Retry(at),
            }
        } else {
            let t = self.owner_read_done(now, src, dst);
            match self.source_check(g, task.src.0, t) {
                SourceCheck::Moved(_) => MigrationEnd::Stale(t),
                SourceCheck::Busy => MigrationEnd::Retry(t),
                SourceCheck::Free => MigrationEnd::Committed(self.service_update_owner(t, task)),
            }
        };
        let commit_done = match end {
            MigrationEnd::Committed(at) => at,
            MigrationEnd::Stale(at) => {
                self.workers[w].1 += 1;
                self.queue
                    .schedule_at(at, ActorId(0), Event::MigWorker { worker });
                return;
            }
            MigrationEnd::Retry(at) => {
                self.metrics.migration_retries += 1;
                let retry =
                    self.granules[g].busy_until.saturating_sub(at) + self.rng.range(0, 2_000_000);
                self.queue
                    .schedule_at(at + retry, ActorId(0), Event::MigWorker { worker });
                return;
            }
        };

        // Ownership flips; the granule is cold at the destination until
        // the Squall-style warm-up finishes (same strategy for all
        // systems, §6.1.2).
        self.granules[g].owner = task.dst.0;
        self.owned[src] -= 1;
        self.owned[dst] += 1;
        self.granules[g].cold_left = self.params.cold_misses_per_granule;
        self.queue.schedule_at(
            commit_done + self.params.warmup_per_granule,
            ActorId(0),
            Event::WarmupDone {
                granule: task.granule.0,
            },
        );
        self.queue.schedule_at(
            commit_done + self.params.route_broadcast_delay,
            ActorId(0),
            Event::RouteUpdate {
                granule: task.granule.0,
            },
        );
        if self.tracer.is_enabled() {
            self.tracer.span_args(
                "migration",
                "migrate",
                now,
                commit_done,
                [
                    ("granule", task.granule.0 as i64),
                    ("dst", i64::from(task.dst.0)),
                ],
            );
        }
        self.metrics.migration(commit_done, commit_done - now);
        self.workers[w].1 += 1;
        self.queue
            .schedule_at(commit_done, ActorId(0), Event::MigWorker { worker });
    }

    /// The data-effectiveness read (Algorithm 1 lines 20–21) the
    /// destination `dst` issues at `now` to the source `src`: one
    /// node-to-node round trip plus CPU on both sides. Returns when the
    /// answer is back.
    pub(super) fn owner_read_done(&mut self, now: Nanos, src: usize, dst: usize) -> Nanos {
        let (src_region, dst_region) = (self.nodes[src].region, self.nodes[dst].region);
        let mut t = now + 2 * self.one_way(dst_region, src_region);
        let svc = self.rng.jittered(self.params.migration_service);
        t += self.nodes[src].cpu.charge(now, t, svc);
        let svc = self.rng.jittered(self.params.migration_service);
        t += self.nodes[dst].cpu.charge(now, t, svc);
        t
    }

    /// What the source finds for `granule` when the read reaches it at
    /// `t`, checked in this order for every backend.
    pub(super) fn source_check(&self, granule: usize, src: u32, t: Nanos) -> SourceCheck {
        let gran = &self.granules[granule];
        if gran.owner != src {
            SourceCheck::Moved(gran.owner)
        } else if gran.busy_until > t {
            SourceCheck::Busy
        } else {
            SourceCheck::Free
        }
    }

    /// The baselines' ownership update through the external coordination
    /// service, sent at `t`; returns when it is acknowledged (at once
    /// under Marlin, which never calls this).
    fn service_update_owner(&mut self, t: Nanos, task: GranuleMove) -> Nanos {
        let CoordBackend::Service(svc) = &mut self.backend else {
            return t;
        };
        self.metrics.coord.service_writes += 1;
        // The coordination service lives in region 0.
        let dst_region = self.nodes[task.dst.0 as usize].region;
        let to_svc = self.params.regions.link(dst_region, RegionId(0)).mean()
            * u64::from(svc.client_round_trips)
            * 2;
        svc.write(t + to_svc / 2, &mut self.rng) + to_svc / 2
    }

    pub(super) fn release_drained(&mut self, now: Nanos) {
        let mut released = false;
        self.accrue_region_time(now);
        let draining = std::mem::take(&mut self.draining);
        let mut still = Vec::new();
        for v in draining {
            if self.owned[v as usize] > 0 {
                still.push(v);
            } else if self.nodes[v as usize].alive {
                self.nodes[v as usize].alive = false;
                released = true;
            }
        }
        self.draining = still;
        if released {
            let live = self.live_nodes();
            self.cost.advance(now, live);
            self.metrics.node_count.push(now, f64::from(live));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- the three worker-queue builders `lay_out` replaced, kept as the
    // -- reference its layout must reproduce queue for queue

    fn placed(sim: &ClusterSim, i: u32) -> (NodeId, RegionId) {
        (NodeId(i), sim.nodes[i as usize].region)
    }

    fn reference_join(
        sim: &ClusterSim,
        slots: &[u32],
        threads_per: u32,
        target_region: Option<RegionId>,
    ) -> Vec<Vec<GranuleMove>> {
        let pool: Vec<(NodeId, RegionId)> = (0..sim.nodes.len() as u32)
            .filter(|&i| {
                sim.nodes[i as usize].alive
                    && target_region.is_none_or(|r| sim.nodes[i as usize].region == r)
            })
            .map(|i| placed(sim, i))
            .collect();
        let joining: Vec<(NodeId, RegionId)> = slots.iter().map(|&s| placed(sim, s)).collect();
        let threads_per = threads_per as usize;
        let mut queues = vec![Vec::new(); (slots.len() * threads_per).max(1)];
        let mut cursor = vec![0usize; slots.len()];
        scale_out_moves(sim.owner_list(), &pool, &joining, |m| {
            if let Some(d) = slots.iter().position(|&s| s == m.dst.0) {
                queues[d * threads_per + cursor[d] % threads_per].push(m);
                cursor[d] += 1;
            }
        });
        queues
    }

    fn reference_drain(
        sim: &ClusterSim,
        victims: &[u32],
        threads_per_victim: u32,
    ) -> Vec<Vec<GranuleMove>> {
        let survivors: Vec<(NodeId, RegionId)> = (0..sim.nodes.len() as u32)
            .filter(|i| sim.nodes[*i as usize].alive && !victims.contains(i))
            .map(|i| placed(sim, i))
            .collect();
        let leaving: Vec<(NodeId, RegionId)> = victims.iter().map(|&v| placed(sim, v)).collect();
        let threads_per = threads_per_victim as usize;
        let mut queues = vec![Vec::new(); (victims.len() * threads_per).max(1)];
        let mut cursor = vec![0usize; victims.len()];
        drain_moves(sim.owner_list(), &leaving, &survivors, |m| {
            if let Some(v) = victims.iter().position(|&v| v == m.src.0) {
                queues[v * threads_per + cursor[v] % threads_per].push(m);
                cursor[v] += 1;
            }
        });
        queues
    }

    /// `apply_action`'s validated moves, one queue per distinct
    /// destination.
    fn reference_rebalance(moves: &[GranuleMove]) -> Vec<Vec<GranuleMove>> {
        let mut dsts: Vec<NodeId> = moves.iter().map(|m| m.dst).collect();
        dsts.sort_unstable();
        dsts.dedup();
        dsts.iter()
            .map(|&dst| moves.iter().filter(|m| m.dst == dst).copied().collect())
            .collect()
    }

    /// A client-less simulator of `nodes` nodes over `granules` granules.
    fn quiet(nodes: u32, granules: u64) -> ClusterSim {
        ClusterSim::new(
            SimParams::default(),
            CoordKind::Marlin,
            &Workload::ycsb(granules),
            nodes,
            0,
            SECOND,
        )
    }

    /// What the seeded cases covered, so the test fails if a generator
    /// change stops reaching a shape.
    #[derive(Default)]
    struct Covered {
        regions: [u32; 4],
        interleaved: u32,
        contiguous: u32,
        empty_pool: u32,
        no_survivors: u32,
        victims_out_of_order: u32,
        repeated_destinations: u32,
    }

    #[test]
    fn one_layout_gives_every_plan_kind_the_reference_queues() {
        let mut covered = Covered::default();
        for seed in 0..360u64 {
            let mut rng = DetRng::seed(seed);
            let nodes = rng.range(1, 9) as u32;
            let granules = rng.range(1, 200);
            let regions = rng.range(1, 5) as u16;
            covered.regions[usize::from(regions) - 1] += 1;
            let mut sim = quiet(nodes, granules);
            // Owners: the initial contiguous blocks, or dealt round-robin.
            if seed % 2 == 0 {
                for (g, gran) in sim.granules.iter_mut().enumerate() {
                    gran.owner = g as u32 % nodes;
                }
                covered.interleaved += 1;
            } else {
                covered.contiguous += 1;
            }
            for node in &mut sim.nodes {
                node.region = RegionId(rng.range(0, u64::from(regions)) as u16);
                node.alive = rng.range(0, 4) > 0;
            }
            let live: Vec<u32> = (0..nodes)
                .filter(|&i| sim.nodes[i as usize].alive)
                .collect();
            let threads = rng.range(1, 5) as u32;
            let (plan, reference) = match seed % 3 {
                0 => {
                    let region = (rng.range(0, 2) == 0)
                        .then(|| RegionId(rng.range(0, u64::from(regions)) as u16));
                    let slots = sim.allocate_join_slots(rng.range(1, 5) as u32, region);
                    for &s in &slots {
                        sim.nodes[s as usize].region =
                            region.unwrap_or(RegionId(rng.range(0, u64::from(regions)) as u16));
                    }
                    let pool_empty = !live
                        .iter()
                        .any(|&i| region.is_none_or(|r| sim.nodes[i as usize].region == r));
                    covered.empty_pool += u32::from(pool_empty);
                    let reference = reference_join(&sim, &slots, threads, region);
                    let plan = Plan::Join {
                        slots,
                        threads_per: threads,
                        region,
                        ordered_at: 0,
                    };
                    (plan, reference)
                }
                1 => {
                    // Every live node, some of them, or (no live node) a
                    // dead one, in a shuffled order.
                    let mut victims: Vec<u32> = if live.is_empty() {
                        vec![0]
                    } else {
                        let keep = rng.range(1, live.len() as u64 + 1) as usize;
                        live[live.len() - keep..].to_vec()
                    };
                    for i in (1..victims.len()).rev() {
                        victims.swap(i, rng.range(0, i as u64 + 1) as usize);
                    }
                    covered.no_survivors += u32::from(live.iter().all(|i| victims.contains(i)));
                    covered.victims_out_of_order +=
                        u32::from(victims.windows(2).any(|w| w[0] > w[1]));
                    let reference = reference_drain(&sim, &victims, threads);
                    let plan = Plan::Drain {
                        victims,
                        threads_per: threads,
                    };
                    (plan, reference)
                }
                _ => {
                    let tries = if live.is_empty() { 0 } else { rng.range(1, 12) };
                    let moves: Vec<GranuleMove> = (0..tries)
                        .filter_map(|_| {
                            let g = rng.range(0, granules);
                            let dst = *rng.pick(&live);
                            let src = sim.granules[g as usize].owner;
                            (dst != src).then_some(GranuleMove {
                                granule: GranuleId(g),
                                src: NodeId(src),
                                dst: NodeId(dst),
                            })
                        })
                        .collect();
                    let reference = if moves.is_empty() {
                        vec![Vec::new()]
                    } else {
                        reference_rebalance(&moves)
                    };
                    covered.repeated_destinations += u32::from(reference.len() < moves.len());
                    (Plan::Rebalance(moves), reference)
                }
            };
            let queues = sim.lay_out(&plan);
            assert_eq!(queues, reference, "seed {seed}");
            for queue in &queues {
                assert_eq!(queue.capacity(), queue.len(), "seed {seed}: sized exactly");
            }
        }
        assert!(covered.regions.iter().all(|&n| n >= 40));
        assert!(covered.interleaved >= 100 && covered.contiguous >= 100);
        assert!(
            covered.empty_pool >= 5,
            "{} empty pools",
            covered.empty_pool
        );
        assert!(covered.no_survivors >= 5, "{}", covered.no_survivors);
        assert!(covered.victims_out_of_order >= 20);
        assert!(covered.repeated_destinations >= 20);
    }

    #[test]
    fn a_plan_without_workers_runs_exactly_one_empty_one() {
        let mut sim = quiet(2, 64);
        assert_eq!(sim.lay_out(&Plan::Rebalance(Vec::new())), vec![Vec::new()]);
        // With no live node to shed or take granules, every worker of a
        // plan with threads is empty, and there are still `leads ×
        // threads` of them, as before.
        for node in &mut sim.nodes {
            node.alive = false;
        }
        let drain = Plan::Drain {
            victims: vec![1, 0],
            threads_per: 3,
        };
        assert_eq!(sim.lay_out(&drain), vec![Vec::new(); 6]);
    }

    #[test]
    #[should_panic(expected = "a migration needs a worker thread")]
    fn a_join_without_worker_threads_is_refused() {
        quiet(2, 64).apply_action(0, &ScaleAction::add(2), 0);
    }

    #[test]
    #[should_panic(expected = "a migration needs a worker thread")]
    fn a_drain_without_worker_threads_is_refused() {
        quiet(2, 64).schedule_scale_in(0, &[NodeId(0)], 0);
    }
}
