//! Reconfiguration: actuating controller decisions, migration plans
//! (scale-out join slots and balanced task lists, drains), the migration
//! worker — Marlin's `MigrationTxn` is `MigrationDriver`, run by the
//! effect pricer; the baselines write through their service — and
//! releasing drained nodes.

use super::protocol::Coordinator;
use super::*;
use marlin_common::{CoordError, TxnId};
use marlin_core::drivers::MigrationDriver;

/// A migration work item: move `granule` from `src` to `dst`.
#[derive(Clone, Copy, Debug)]
pub struct MigrationTask {
    /// The granule to move.
    pub granule: u64,
    /// Source node index (must own the granule when the task runs).
    pub src: u32,
    /// Destination node index.
    pub dst: u32,
}

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

/// A migration plan: tasks partitioned over destination-side worker
/// threads ("the number of concurrent migration transactions is increased
/// as the number of compute nodes increases", §6.1.4).
#[derive(Clone, Debug, Default)]
pub struct MigrationPlan {
    /// One queue per worker thread.
    pub queues: Vec<Vec<MigrationTask>>,
}

impl MigrationPlan {
    /// Total tasks in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queues.iter().map(Vec::len).sum()
    }

    /// Whether the plan is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A scheduled-but-not-yet-started migration plan.
///
/// Scale-outs are deliberately *deferred*: at order time only the node
/// slots are reserved (so concurrent orders cannot collide and
/// observations can report the capacity as pending); the balanced task
/// list is built when the provisioning lead elapses and the nodes
/// actually join. Building tasks at order time looks equivalent with
/// instant provisioning — and is bit-identical then, since no event can
/// run in between — but under a real lead any migration that commits
/// during the window invalidates prebuilt tasks (the data-effectiveness
/// check skips them as stale), leaving the join under-balanced and a
/// subset of old nodes hot for the rest of the run.
pub(super) enum PendingPlan {
    /// Tasks already built (drain-less rebalances, prepared plans).
    Built {
        /// The task queues to run when the plan starts.
        plan: MigrationPlan,
        /// Node slots to activate when the plan starts.
        activate: Vec<u32>,
    },
    /// A scale-out whose rebalance tasks are built at start time.
    ScaleOut {
        /// Reserved node slots that join when the lead elapses.
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
        PendingPlan::Built {
            plan: MigrationPlan::default(),
            activate: Vec::new(),
        }
    }
}

impl PendingPlan {
    /// Slots this pending plan has reserved (they may not be handed to
    /// another plan, and observations report them as pending capacity).
    pub(super) fn reserved_slots(&self) -> &[u32] {
        match self {
            PendingPlan::Built { activate, .. } => activate,
            PendingPlan::ScaleOut { slots, .. } => slots,
        }
    }
}

impl ClusterSim {
    /// Actuate one controller decision at virtual time `at`.
    ///
    /// Scale-outs and scale-ins reuse the same migration-plan machinery
    /// the scripted scenarios exercise; rebalance moves become a one-off
    /// migration plan after re-validating each move against current
    /// ownership (the observation the planner saw may be a control
    /// interval old).
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
                let victims: Vec<u32> = victims
                    .iter()
                    .map(|n| n.0)
                    .filter(|&v| {
                        (v as usize) < self.nodes.len()
                            && self.nodes[v as usize].alive
                            && !self.draining.contains(&v)
                    })
                    .collect();
                if !victims.is_empty() && (victims.len() as u32) < self.live_nodes() {
                    self.schedule_scale_in(at, victims, threads_per_node);
                }
            }
            ScaleAction::Rebalance { moves } => {
                let tasks: Vec<MigrationTask> = moves
                    .iter()
                    .filter(|m| {
                        let g = m.granule.0 as usize;
                        g < self.granules.len()
                            && self.granules[g].owner == m.src.0
                            && m.dst != m.src
                            && (m.dst.0 as usize) < self.nodes.len()
                            && self.nodes[m.dst.0 as usize].alive
                    })
                    .map(|m| MigrationTask {
                        granule: m.granule.0,
                        src: m.src.0,
                        dst: m.dst.0,
                    })
                    .collect();
                if tasks.is_empty() {
                    return;
                }
                // One worker thread per distinct destination.
                let mut dsts: Vec<u32> = tasks.iter().map(|t| t.dst).collect();
                dsts.sort_unstable();
                dsts.dedup();
                let mut queues: Vec<Vec<MigrationTask>> = vec![Vec::new(); dsts.len()];
                for task in tasks {
                    let d = dsts.binary_search(&task.dst).expect("dst indexed");
                    queues[d].push(task);
                }
                self.schedule_plan(at, MigrationPlan { queues }, Vec::new());
            }
        }
    }

    /// Schedule a scale-out at `at`: `new_nodes` nodes join and the plan's
    /// migrations run with `threads_per_new_node` workers per new node.
    pub fn schedule_scale_out(&mut self, at: Nanos, new_nodes: u32, threads_per_new_node: u32) {
        self.schedule_scale_out_in(at, new_nodes, threads_per_new_node, None);
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
    pub fn schedule_scale_out_in(
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
        self.pending_plans.push(PendingPlan::ScaleOut {
            slots,
            threads_per: threads_per_new_node,
            region,
            ordered_at: at,
        });
        let idx = self.pending_plans.len() - 1;
        self.queue
            .schedule_at(ready_at, ActorId(0), Event::StartPlan { plan_idx: idx });
    }

    /// Schedule a scale-in at `at`: drain `victims` onto the survivors and
    /// release each victim as soon as it is empty.
    pub fn schedule_scale_in(&mut self, at: Nanos, victims: Vec<u32>, threads_per_victim: u32) {
        self.queue.schedule_at(
            at,
            ActorId(0),
            Event::StartDrain {
                victims,
                threads_per_victim,
            },
        );
    }

    /// Reserve the node slots a scale-out will activate. Released (dead)
    /// node slots are reused before fresh ones are provisioned, so
    /// repeated scale-out/in cycles — the closed-loop controller's
    /// steady diet — don't grow the node table without bound. With a
    /// `target_region`, the joining nodes are placed in that region
    /// (reused slots are re-homed — a released node is a fresh VM).
    fn allocate_join_slots(&mut self, new_nodes: u32, target_region: Option<RegionId>) -> Vec<u32> {
        let regions = self.params.regions.regions() as u16;
        // Slots already promised to a pending plan are not reusable.
        let reserved: std::collections::BTreeSet<u32> = self
            .pending_plans
            .iter()
            .flat_map(|p| p.reserved_slots().iter().copied())
            .collect();
        let mut slots: Vec<u32> = (0..self.nodes.len() as u32)
            .filter(|&i| {
                !self.nodes[i as usize].alive
                    && !reserved.contains(&i)
                    && !self.draining.contains(&i)
            })
            .take(new_nodes as usize)
            .collect();
        if let Some(r) = target_region {
            for &slot in &slots {
                self.nodes[slot as usize].region = r;
            }
        }
        while (slots.len() as u32) < new_nodes {
            let idx = self.nodes.len() as u32;
            self.nodes.push(NodeSim {
                region: target_region.unwrap_or(RegionId(idx as u16 % regions)),
                cpu: NodeCpu::new(self.params.cpu_model, self.params.cpu_workers),
                glog: SimLog::default(),
                tracker: LsnTracker::new(),
                append_station: CpuStation::new(1),
                alive: false, // activates when the plan starts
            });
            self.owned.push(0);
            slots.push(idx);
        }
        slots
    }

    /// Build the balanced migration plan that moves granules from the
    /// live nodes onto the reserved `slots`, against *current* ownership.
    /// Called when the plan starts (provisioning complete), not when it
    /// was ordered: tasks built against order-time ownership go stale the
    /// moment any other migration commits during the lead, and stale
    /// tasks are skipped — leaving the join under-balanced.
    ///
    /// With a `target_region`, only that region's live members shed
    /// granules, so a hot region's scale-out never drags another region's
    /// data across the WAN.
    pub(super) fn balanced_tasks_onto(
        &mut self,
        slots: &[u32],
        threads_per: u32,
        target_region: Option<RegionId>,
    ) -> MigrationPlan {
        let live: Vec<u32> = (0..self.nodes.len() as u32)
            .filter(|&i| {
                self.nodes[i as usize].alive
                    && target_region.is_none_or(|r| self.nodes[i as usize].region == r)
            })
            .collect();
        let total = (live.len() + slots.len()) as u64;
        // Target: every pool node ends with pool_granules/total granules;
        // move the excess from each live pool member to the joining ones,
        // preferring same-region destinations (the geo setting migrates
        // within regions). The pool is the whole table for an untargeted
        // add, and the target region's owned granules for a targeted one.
        let mut tasks: Vec<MigrationTask> = Vec::new();
        let pool_granules = match target_region {
            None => self.granules.len() as u64,
            Some(_) => live.iter().map(|&i| self.owned[i as usize]).sum(),
        };
        let per_node_target = pool_granules / total.max(1);
        let mut surplus: std::collections::BTreeMap<u32, Vec<u64>> =
            live.iter().map(|&i| (i, Vec::new())).collect();
        for (g, gran) in self.granules.iter().enumerate() {
            if let Some(list) = surplus.get_mut(&gran.owner) {
                list.push(g as u64);
            }
        }
        let mut next_new = 0usize;
        for (&owner, granules) in &surplus {
            let excess = (granules.len() as u64).saturating_sub(per_node_target);
            for g in granules.iter().rev().take(excess as usize) {
                // Round-robin over joining nodes in the same region if any.
                let src_region = self.nodes[owner as usize].region;
                let mut dst = None;
                for probe in 0..slots.len() {
                    let cand = (next_new + probe) % slots.len();
                    if self.nodes[slots[cand] as usize].region == src_region {
                        dst = Some(cand);
                        break;
                    }
                }
                let dst = dst.unwrap_or(next_new % slots.len());
                next_new = dst + 1;
                tasks.push(MigrationTask {
                    granule: *g,
                    src: owner,
                    dst: slots[dst],
                });
            }
        }
        // Partition tasks into per-thread queues grouped by destination.
        let threads_total = slots.len() * threads_per as usize;
        let mut queues: Vec<Vec<MigrationTask>> = vec![Vec::new(); threads_total.max(1)];
        let mut dst_cursor = vec![0usize; slots.len()];
        for task in tasks {
            let d = slots
                .iter()
                .position(|&s| s == task.dst)
                .expect("dst is a slot");
            let thread = d * threads_per as usize + dst_cursor[d] % threads_per as usize;
            dst_cursor[d] += 1;
            queues[thread].push(task);
        }
        MigrationPlan { queues }
    }

    /// Build a drain plan that empties `victims` (node indices) onto the
    /// remaining live nodes. Drains stay region-local: each victim's
    /// granules land on survivors in its own region, falling back to the
    /// full survivor set only when the drain empties the region (so the
    /// geo setting never ships a drained granule across the WAN while
    /// local capacity exists).
    #[must_use]
    pub fn drain_plan(&self, victims: &[u32], threads_per_victim: u32) -> MigrationPlan {
        let survivors: Vec<u32> = (0..self.nodes.len() as u32)
            .filter(|i| self.nodes[*i as usize].alive && !victims.contains(i))
            .collect();
        assert!(!survivors.is_empty(), "drain needs at least one survivor");
        // Per-victim destination pool: same-region survivors when any.
        let pools: Vec<Vec<u32>> = victims
            .iter()
            .map(|&v| {
                let region = self.nodes[v as usize].region;
                let local: Vec<u32> = survivors
                    .iter()
                    .copied()
                    .filter(|&s| self.nodes[s as usize].region == region)
                    .collect();
                if local.is_empty() {
                    survivors.clone()
                } else {
                    local
                }
            })
            .collect();
        let mut queues: Vec<Vec<MigrationTask>> =
            vec![Vec::new(); (victims.len() as u32 * threads_per_victim).max(1) as usize];
        let mut rr = 0usize;
        // Per-victim thread cursors: a global counter would alias with the
        // round-robin ownership pattern and starve most threads.
        let mut cursor = vec![0usize; victims.len()];
        for (g, gran) in self.granules.iter().enumerate() {
            if let Some(vi) = victims.iter().position(|v| *v == gran.owner) {
                let pool = &pools[vi];
                let dst = pool[rr % pool.len()];
                rr += 1;
                let thread =
                    vi * threads_per_victim as usize + cursor[vi] % threads_per_victim as usize;
                cursor[vi] += 1;
                queues[thread].push(MigrationTask {
                    granule: g as u64,
                    src: gran.owner,
                    dst,
                });
            }
        }
        MigrationPlan { queues }
    }

    /// Schedule a prepared plan (used by the dynamic scenario for
    /// scale-in; marks sources as draining so they release once empty).
    pub fn schedule_plan(&mut self, at: Nanos, plan: MigrationPlan, draining: Vec<u32>) {
        self.pending_plans.push(PendingPlan::Built {
            plan,
            activate: Vec::new(),
        });
        let idx = self.pending_plans.len() - 1;
        self.draining.extend(draining);
        self.queue
            .schedule_at(at, ActorId(0), Event::StartPlan { plan_idx: idx });
    }

    /// Hand each of `plan`'s queues to a new migration worker thread.
    pub(super) fn start_workers(&mut self, plan: MigrationPlan) {
        for queue in plan.queues {
            let worker = self.workers.len() as u32;
            self.workers.push((queue, 0));
            self.queue
                .schedule(0, ActorId(0), Event::MigWorker { worker });
        }
    }

    pub(super) fn handle_mig_worker(&mut self, now: Nanos, worker: u32) {
        let w = worker as usize;
        let (ref queue_tasks, cursor) = self.workers[w];
        if cursor >= queue_tasks.len() {
            // Worker done; if a drain finished, release nodes.
            if !self.draining.is_empty() {
                self.queue.schedule(0, ActorId(0), Event::ReleaseDrained);
            }
            return;
        }
        let task = queue_tasks[cursor];
        let g = task.granule as usize;
        let end = if matches!(self.backend, CoordBackend::Marlin) {
            // MigrationTxn over MarlinCommit, coordinated by the
            // destination (§4.4.1), run by the pricer.
            let txn = TxnId::new(NodeId(task.dst), self.next_txn_seq());
            let started = MigrationDriver::new(
                txn,
                NodeId(task.src),
                NodeId(task.dst),
                vec![GranuleId(task.granule)],
            );
            match self.run_driver(Coordinator::Node(task.dst as usize), started, now) {
                (Some(Ok(())), at) => MigrationEnd::Committed(at),
                (Some(Err(CoordError::WrongOwner { .. })), at) => MigrationEnd::Stale(at),
                // NO_WAIT at the source; a lost CAS or a NO vote, which
                // no run produces today, retries the same way.
                (_, at) => MigrationEnd::Retry(at),
            }
        } else {
            let t = self.owner_read_done(now, task.src as usize, task.dst as usize);
            match self.source_check(g, task.src, t) {
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
        let (src, dst) = (task.src as usize, task.dst as usize);
        self.granules[g].owner = task.dst;
        self.owned[src] -= 1;
        self.owned[dst] += 1;
        self.granules[g].cold_left = self.params.cold_misses_per_granule;
        self.queue.schedule_at(
            commit_done + self.params.warmup_per_granule,
            ActorId(0),
            Event::WarmupDone {
                granule: task.granule,
            },
        );
        self.queue.schedule_at(
            commit_done + self.params.route_broadcast_delay,
            ActorId(0),
            Event::RouteUpdate {
                granule: task.granule,
            },
        );
        if self.tracer.is_enabled() {
            self.tracer.span_args(
                "migration",
                "migrate",
                now,
                commit_done,
                [
                    ("granule", task.granule as i64),
                    ("dst", i64::from(task.dst)),
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
        let svc = self.jittered(self.params.migration_service);
        t += self.nodes[src].cpu.charge(now, t, svc);
        let svc = self.jittered(self.params.migration_service);
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
    fn service_update_owner(&mut self, t: Nanos, task: MigrationTask) -> Nanos {
        let CoordBackend::Service(svc) = &mut self.backend else {
            return t;
        };
        self.metrics.coord.service_writes += 1;
        let req = CoordRequest::UpdateOwner {
            granule: GranuleId(task.granule),
            from: NodeId(task.src),
            to: NodeId(task.dst),
        };
        // The coordination service lives in region 0.
        let dst_region = self.nodes[task.dst as usize].region;
        let to_svc = self.params.regions.link(dst_region, RegionId(0)).mean()
            * u64::from(svc.client_round_trips(&req))
            * 2;
        let completion = svc.submit(t + to_svc / 2, &req, &mut self.rng);
        debug_assert_eq!(completion.reply, CoordReply::Updated);
        completion.done_at + to_svc / 2
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
