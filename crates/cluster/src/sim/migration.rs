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

/// A migration plan: moves partitioned over destination-side worker
/// threads ("the number of concurrent migration transactions is increased
/// as the number of compute nodes increases", §6.1.4). A move's `src`
/// must own its granule when the move runs; otherwise it is stale.
#[derive(Clone, Debug, Default)]
pub(super) struct MigrationPlan {
    /// One queue per worker thread.
    pub(super) queues: Vec<Vec<GranuleMove>>,
}

/// A scheduled-but-not-yet-started migration plan.
///
/// Scale-outs are deliberately *deferred*: at order time only the node
/// ids are minted (so observations can report the capacity as
/// pending); the balanced task list is built when the plan starts —
/// the provisioning lead has elapsed and the previous plan has
/// finished — and the nodes actually join. Building tasks at order
/// time looks equivalent with instant provisioning — and is
/// bit-identical then, since no event can run in between — but under a
/// real lead any migration that commits during the window invalidates
/// prebuilt tasks (the data-effectiveness check skips them as stale),
/// leaving the join under-balanced and a subset of old nodes hot for the
/// rest of the run.
pub(super) enum PendingPlan {
    /// A plan already built (a rebalance): the queues to run when it
    /// starts.
    Built(MigrationPlan),
    /// A scale-out whose rebalance tasks are built at start time.
    ScaleOut {
        /// The joining nodes' fresh ids.
        slots: Vec<u32>,
        /// Migration worker threads per joining node.
        threads_per: u32,
        /// Placement request the order carried.
        region: Option<RegionId>,
        /// When the capacity was ordered (the provision-lead trace span
        /// runs from here to the plan start).
        ordered_at: Nanos,
    },
}

impl Default for PendingPlan {
    fn default() -> Self {
        PendingPlan::Built(MigrationPlan::default())
    }
}

impl PendingPlan {
    /// The nodes this pending plan will join (observations report them
    /// as pending capacity).
    pub(super) fn reserved_slots(&self) -> &[u32] {
        match self {
            PendingPlan::Built(_) => &[],
            PendingPlan::ScaleOut { slots, .. } => slots,
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
    pub fn apply_action(&mut self, at: Nanos, action: &ScaleAction, threads_per_node: u32) {
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
        self.apply_action_inner(at, action, threads_per_node);
        self.profiler.record("actuate", prof);
        self.profiler.record_total(prof);
    }

    fn apply_action_inner(&mut self, at: Nanos, action: &ScaleAction, threads_per_node: u32) {
        match action {
            ScaleAction::AddNodes { count, region } => {
                if *count > 0 {
                    self.schedule_scale_out_in(at, *count, threads_per_node, *region);
                }
            }
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
                if moves.is_empty() {
                    return;
                }
                // One worker thread per distinct destination.
                let mut dsts: Vec<NodeId> = moves.iter().map(|m| m.dst).collect();
                dsts.sort_unstable();
                dsts.dedup();
                let queues = dsts
                    .iter()
                    .map(|&dst| moves.iter().filter(|m| m.dst == dst).copied().collect())
                    .collect();
                self.schedule_plan(at, PendingPlan::Built(MigrationPlan { queues }));
            }
        }
    }

    /// Schedule a scale-out with an explicit placement request: the new
    /// nodes are provisioned in `region` (when given) and the rebalance
    /// plan drains only that region's members onto them.
    ///
    /// The plan *starts* — the new nodes join the membership, begin to
    /// be billed, and the migrations onto them launch — only after
    /// [`SimParams::provision_lead_time`] has elapsed past `at`: ordering
    /// capacity is not the same as having it. With the default lead of
    /// 0 the behavior (and every event timestamp) is exactly the
    /// historical instant-capacity one.
    fn schedule_scale_out_in(
        &mut self,
        at: Nanos,
        new_nodes: u32,
        threads_per_new_node: u32,
        region: Option<RegionId>,
    ) {
        let ready_at =
            at + self.params.provision_lead_time + std::mem::take(&mut self.lead_extra_once);
        let slots = self.allocate_join_slots(new_nodes, region);
        if self.tracer.is_enabled() {
            self.tracer.instant_args(
                "provision",
                "scale_out_ordered",
                at,
                [
                    ("count", i64::from(new_nodes)),
                    (
                        "lead_ms",
                        (self.params.provision_lead_time / 1_000_000) as i64,
                    ),
                ],
            );
        }
        let plan = PendingPlan::ScaleOut {
            slots,
            threads_per: threads_per_new_node,
            region,
            ordered_at: at,
        };
        self.schedule_plan(ready_at, plan);
    }

    /// Order a scale-in at `at`: the nodes [`victims`] keeps of
    /// `requested`, the live nodes not leaving being the members, leave
    /// from now on; each is released once its drain has emptied it.
    pub(crate) fn schedule_scale_in(
        &mut self,
        at: Nanos,
        requested: &[NodeId],
        threads_per_victim: u32,
    ) {
        let members: Vec<NodeId> = (0..self.nodes.len() as u32)
            .filter(|&i| self.nodes[i as usize].alive && !self.nodes[i as usize].leaving)
            .map(NodeId)
            .collect();
        let victims: Vec<u32> = victims(requested, &members).iter().map(|v| v.0).collect();
        if victims.is_empty() {
            return;
        }
        for &v in &victims {
            self.nodes[v as usize].leaving = true;
        }
        let start = Event::StartDrain {
            victims,
            threads_per_victim,
        };
        self.queue.schedule_at(at, ActorId(0), start);
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

    /// Build the balanced migration plan that moves granules from the
    /// live nodes onto the joining `slots`, against *current* ownership.
    /// Called when the plan starts (provisioning complete), not when it
    /// was ordered: tasks built against order-time ownership go stale the
    /// moment any other migration commits during the lead, and stale
    /// tasks are skipped — leaving the join under-balanced.
    ///
    /// The moves are [`scale_out_moves`]'s, with the live nodes as the
    /// pool; with a `target_region`, only that region's live members
    /// shed granules, so a hot region's scale-out never drags another
    /// region's data across the WAN. Each destination slot gets
    /// `threads_per` worker queues, filled in turn.
    pub(super) fn balanced_tasks_onto(
        &self,
        slots: &[u32],
        threads_per: u32,
        target_region: Option<RegionId>,
    ) -> MigrationPlan {
        let pool: Vec<(NodeId, RegionId)> = (0..self.nodes.len() as u32)
            .filter(|&i| {
                self.nodes[i as usize].alive
                    && target_region.is_none_or(|r| self.nodes[i as usize].region == r)
            })
            .map(|i| self.placed(i))
            .collect();
        let joining: Vec<(NodeId, RegionId)> = slots.iter().map(|&s| self.placed(s)).collect();
        let threads_per = threads_per as usize;
        let mut queues = vec![Vec::new(); (slots.len() * threads_per).max(1)];
        let mut cursor = vec![0usize; slots.len()];
        scale_out_moves(self.owner_list(), &pool, &joining, |m| {
            if let Some(d) = slots.iter().position(|&s| s == m.dst.0) {
                queues[d * threads_per + cursor[d] % threads_per].push(m);
                cursor[d] += 1;
            }
        });
        MigrationPlan { queues }
    }

    /// Build a drain plan that empties `victims` (node indices) onto the
    /// remaining live nodes, by [`drain_moves`]: drains stay
    /// region-local, so the geo setting never ships a drained granule
    /// across the WAN while local capacity exists. Each victim gets
    /// `threads_per_victim` worker queues, filled in turn, in victim
    /// order.
    fn drain_plan(&self, victims: &[u32], threads_per_victim: u32) -> MigrationPlan {
        let survivors: Vec<(NodeId, RegionId)> = (0..self.nodes.len() as u32)
            .filter(|i| self.nodes[*i as usize].alive && !victims.contains(i))
            .map(|i| self.placed(i))
            .collect();
        let leaving: Vec<(NodeId, RegionId)> = victims.iter().map(|&v| self.placed(v)).collect();
        let threads_per = threads_per_victim as usize;
        let mut queues = vec![Vec::new(); (victims.len() * threads_per).max(1)];
        // Per-victim thread cursors: a global counter would alias with the
        // round-robin ownership pattern and starve most threads.
        let mut cursor = vec![0usize; victims.len()];
        drain_moves(self.owner_list(), &leaving, &survivors, |m| {
            if let Some(v) = victims.iter().position(|&v| v == m.src.0) {
                queues[v * threads_per + cursor[v] % threads_per].push(m);
                cursor[v] += 1;
            }
        });
        MigrationPlan { queues }
    }

    /// Node `i` with its region, as the placement rules take it.
    fn placed(&self, i: u32) -> (NodeId, RegionId) {
        (NodeId(i), self.nodes[i as usize].region)
    }

    /// Every granule's owner, in granule order.
    fn owner_list(&self) -> impl DoubleEndedIterator<Item = (GranuleId, NodeId)> + Clone + '_ {
        self.granules
            .iter()
            .enumerate()
            .map(|(g, gran)| (GranuleId(g as u64), NodeId(gran.owner)))
    }

    /// Schedule `plan` to start at `at`.
    fn schedule_plan(&mut self, at: Nanos, plan: PendingPlan) {
        self.pending_plans.push(plan);
        let idx = self.pending_plans.len() - 1;
        self.queue
            .schedule_at(at, ActorId(0), Event::StartPlan { plan_idx: idx });
    }

    /// Start the plan a `StartPlan` or `StartDrain` event names, or hold
    /// it while another plan's workers are active: a drain's snapshot of
    /// the owner map then holds every earlier move, and a scale-out's pool
    /// every earlier join and release, as on `LocalRunner`.
    pub(super) fn start_or_hold(&mut self, now: Nanos, start: Event) {
        if self.active_workers > 0 {
            self.held.push_back(start);
            return;
        }
        match start {
            Event::StartPlan { plan_idx } => self.start_plan(now, plan_idx),
            Event::StartDrain {
                victims,
                threads_per_victim,
            } => {
                let build = self.profiler.start();
                let plan = self.drain_plan(&victims, threads_per_victim);
                self.profiler.record("plan:drain", build);
                if self.tracer.is_enabled() {
                    let tasks: usize = plan.queues.iter().map(Vec::len).sum();
                    self.tracer.instant_args(
                        "migration",
                        "drain_started",
                        now,
                        [("victims", victims.len() as i64), ("tasks", tasks as i64)],
                    );
                }
                self.draining.extend(victims);
                self.start_workers(plan);
            }
            // Only plan starts reach here (see `dispatch`).
            _ => {}
        }
    }

    fn start_plan(&mut self, now: Nanos, plan_idx: usize) {
        let (plan, activate) = match std::mem::take(&mut self.pending_plans[plan_idx]) {
            PendingPlan::Built(plan) => (plan, Vec::new()),
            // Scale-out: provisioning is complete — build the balanced
            // task list against *current* ownership (the slots are still
            // dead here), then activate.
            PendingPlan::ScaleOut {
                slots,
                threads_per,
                region,
                ordered_at,
            } => {
                // Order → provision → join: the lead the capacity order
                // waited before the nodes could join.
                self.tracer.span_args(
                    "provision",
                    "provision_lead",
                    ordered_at,
                    now,
                    [("nodes", slots.len() as i64), ("", 0)],
                );
                let build = self.profiler.start();
                let plan = self.balanced_tasks_onto(&slots, threads_per, region);
                self.profiler.record("plan:build", build);
                (plan, slots)
            }
        };
        if self.tracer.is_enabled() {
            let tasks: usize = plan.queues.iter().map(Vec::len).sum();
            self.tracer.instant_args(
                "migration",
                "plan_started",
                now,
                [("tasks", tasks as i64), ("joining", activate.len() as i64)],
            );
        }
        // This plan's nodes join the membership now.
        self.accrue_region_time(now);
        for slot in activate {
            self.nodes[slot as usize].alive = true;
        }
        let live = self.live_nodes();
        self.cost.advance(now, live);
        self.metrics.node_count.push(now, f64::from(live));
        self.start_workers(plan);
    }

    /// Hand each of `plan`'s queues to a new migration worker thread.
    pub(super) fn start_workers(&mut self, plan: MigrationPlan) {
        for queue in plan.queues {
            let worker = self.workers.len() as u32;
            self.workers.push((queue, 0));
            self.active_workers += 1;
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
