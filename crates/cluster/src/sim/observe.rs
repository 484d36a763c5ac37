//! What the autoscaler sees: the windowed commit-latency accumulators
//! and [`ClusterSim::observe`].

use super::*;

/// `(total weight, weighted p99)` of one region's samples (all samples
/// for `None`) in `(latency, weight, region)` entries sorted by latency
/// (ties in any order). With unit weights this is exactly the historical
/// `sorted[(len - 1) * 99 / 100]` index rule: the first sample whose
/// cumulative weight exceeds `(total - 1) * 99 / 100` is at that index.
pub(super) fn sorted_window_stats(
    sorted: &[(Nanos, u32, u16)],
    region: Option<u16>,
) -> (u64, Nanos) {
    let mine = || sorted.iter().filter(|e| region.is_none_or(|r| e.2 == r));
    let total: u64 = mine().map(|e| u64::from(e.1)).sum();
    let target = total.saturating_sub(1) * 99 / 100;
    let (mut cum, mut p99) = (0u64, 0);
    for &(l, w, _) in mine() {
        (cum, p99) = (cum + u64::from(w), l);
        if cum > target {
            break;
        }
    }
    (total, p99)
}

/// Windowed per-region commit-latency histograms — the `latency_hist`
/// scale path replacing the exact `(latency, weight)` tuple window.
///
/// One slot per virtual second of *commit time*, recycled lazily: a
/// write whose second differs from the slot's tag clears the slot
/// first. [`LatencyWindow::SLOTS`] exceeds
/// `ClusterSim::MAX_OBSERVE_WINDOW` in seconds, so no slot still inside
/// an observation window is ever recycled (commit timestamps run at
/// most a few seconds ahead of the event clock — client latencies are
/// bounded far below the ~68 s of recycle slack).
///
/// Observation windows in the presets are whole seconds and control
/// ticks fire on whole-second boundaries, so the window cutoff lands on
/// a slot boundary and the merged histogram covers exactly the commit
/// multiset the exact tuple window retains — any p99 difference is
/// purely the histogram's documented bucketing error.
pub(super) struct LatencyWindow {
    /// `(second tag, one histogram per region)`; slot index is
    /// `second % SLOTS`. Empty when the hist path is inactive.
    slots: Vec<(u64, Vec<LatencyHist>)>,
}

impl LatencyWindow {
    /// Retained slots (seconds); must exceed `MAX_OBSERVE_WINDOW / SECOND`.
    const SLOTS: u64 = 128;

    /// A window for `regions` regions, or a zero-footprint stub when
    /// `regions == 0` (the hist path is inactive).
    pub(super) fn new(regions: usize) -> Self {
        let slots = if regions == 0 {
            Vec::new()
        } else {
            (0..Self::SLOTS)
                .map(|_| (0u64, vec![LatencyHist::new(); regions]))
                .collect()
        };
        LatencyWindow { slots }
    }

    /// Record a commit at `at` with client-perceived `latency`.
    pub(super) fn record(&mut self, at: Nanos, latency: Nanos, region: u16, weight: u64) {
        let sec = at / SECOND;
        let slot = &mut self.slots[(sec % Self::SLOTS) as usize];
        if slot.0 != sec {
            slot.0 = sec;
            for h in &mut slot.1 {
                h.clear();
            }
        }
        slot.1[region as usize].record_n(latency, weight);
    }

    /// Merge every slot overlapping `[cutoff, ∞)` — all regions, or one.
    /// Merge order never affects the result (bucket counts add; exact
    /// tuples are re-sorted by value before quantile selection), so the
    /// derived stats are deterministic.
    fn merged(&self, cutoff: Nanos, region: Option<u16>) -> LatencyHist {
        let mut out = LatencyHist::new();
        for (sec, hists) in &self.slots {
            if sec.saturating_add(1).saturating_mul(SECOND) <= cutoff {
                continue;
            }
            match region {
                Some(r) => out.merge(&hists[r as usize]),
                None => {
                    for h in hists {
                        out.merge(h);
                    }
                }
            }
        }
        out
    }
}

impl ClusterSim {
    /// How many of the hottest granules an observation samples for the
    /// rebalance planner.
    const OBSERVED_HOT_GRANULES: usize = 64;

    /// Upper bound on the commit-latency window retained by the commit
    /// path (observation windows larger than this would under-count).
    pub(super) const MAX_OBSERVE_WINDOW: Nanos = 60 * SECOND;

    /// Snapshot cluster health at `now` over the trailing `window`.
    ///
    /// Throughput and p99 latency come from the committed-transaction
    /// window, per-node utilization from the CPU stations, the burn rate
    /// from the §6.1.5 cost model, and granule heat from the access
    /// counters accumulated since the last observation (which this call
    /// resets).
    ///
    /// Utilization is offered load per worker-capacity in both CPU
    /// models; what differs is how it is obtained and what `queue_depth`
    /// reports:
    ///
    /// - `Analytic` — utilization is the EMA load *estimate* decayed to
    ///   `now` (smooth, unclamped), and `queue_depth` is the modeled
    ///   utilization excess beyond 1;
    /// - `PerRequest` — utilization is offered load *measured* exactly
    ///   over the trailing window, and `queue_depth` is the real queue
    ///   length per worker from the stations' waiting-time integrals
    ///   (time-averaged over the same window, averaged over live
    ///   nodes — not derived from a utilization excess). Per-region
    ///   digests get the same measured treatment: each region's queue
    ///   field is overwritten with the mean over its own live stations.
    pub fn observe(&mut self, now: Nanos, window: Nanos) -> Observation {
        debug_assert!(
            window <= Self::MAX_OBSERVE_WINDOW,
            "observation window exceeds the retained commit history"
        );
        let prof = self.profiler.start();
        let mut lap = prof;
        let cutoff = now.saturating_sub(window);
        let window_s = (window as f64 / SECOND as f64).max(1e-9);
        // The exact window, sorted once, every `(weight, p99)` a walk over
        // it, and freed before the observation's own vectors are allocated.
        let mut region_stats: Vec<(u64, Nanos)> = Vec::new();
        let (total_weight, p99_latency) = if self.hist_active {
            let h = self.lat_window.merged(cutoff, None);
            (h.total_weight(), h.p99())
        } else {
            self.recent_commits.retain(|&(t, _, _, _)| t >= cutoff);
            let entries = self.recent_commits.iter().map(|&(_, l, r, w)| (l, w, r));
            let mut lat: Vec<(Nanos, u32, u16)> = entries.collect();
            lat.sort_unstable_by_key(|&(l, _, _)| l);
            let regions = self.params.regions.regions() as u16;
            region_stats.extend((0..regions).map(|r| sorted_window_stats(&lat, Some(r))));
            sorted_window_stats(&lat, None)
        };
        let throughput_tps = total_weight as f64 / window_s;
        self.profiler.lap("observe:latency", &mut lap);

        // Per-node load and placement.
        debug_assert_eq!(self.owned, self.recount_owned(), "owned counts drifted");
        // Slots promised to a scheduled-but-unstarted scale-out plan:
        // capacity ordered whose provisioning lead is still running.
        // Policies read these as `pending` so they don't re-buy the same
        // shortfall every tick of the lead (always empty when
        // `provision_lead_time` is 0 — the plan starts before the next
        // observation).
        let pending: std::collections::BTreeSet<u32> = self
            .pending_plans
            .iter()
            .flat_map(|p| p.reserved_slots().iter().copied())
            .collect();
        let node_loads: Vec<NodeLoad> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| NodeLoad {
                node: NodeId(i as u32),
                region: n.region,
                alive: n.alive,
                pending: pending.contains(&(i as u32)),
                utilization: n.cpu.observed_rho(now, window),
                owned_granules: self.owned[i],
            })
            .collect();
        let live: Vec<&NodeLoad> = node_loads.iter().filter(|n| n.alive).collect();
        let mean_utilization = if live.is_empty() {
            0.0
        } else {
            live.iter().map(|n| n.utilization.min(1.0)).sum::<f64>() / live.len() as f64
        };
        // Measured per-node queue lengths (per-request mode only),
        // tagged with placement so the per-region digests below reuse
        // them instead of re-integrating every station per region.
        let measured_queues: Vec<(RegionId, f64)> = self
            .nodes
            .iter()
            .filter(|n| n.alive)
            .filter_map(|n| n.cpu.observed_queue(now, window).map(|q| (n.region, q)))
            .collect();
        let queue_depth = if live.is_empty() {
            0.0
        } else if measured_queues.is_empty() {
            // Analytic fallback: the modeled excess beyond capacity.
            live.iter()
                .map(|n| (n.utilization - 1.0).max(0.0))
                .sum::<f64>()
                / live.len() as f64
        } else {
            measured_queues.iter().map(|&(_, q)| q).sum::<f64>() / measured_queues.len() as f64
        };

        self.profiler.lap("observe:placement", &mut lap);

        // Hottest granules since the last observation; counters reset so
        // each observation sees one window's heat. The tracker's exact
        // mode reproduces the historical scan (same sort, same ties);
        // sketch mode estimates over its candidate set.
        let granule_loads: Vec<GranuleLoad> = self
            .heat
            .hottest(Self::OBSERVED_HOT_GRANULES)
            .into_iter()
            .map(|(g, hits)| GranuleLoad {
                granule: GranuleId(g as u64),
                owner: NodeId(self.granules[g].owner),
                load: f64::from(hits),
            })
            .collect();
        self.heat.reset();
        self.profiler.lap("observe:heat", &mut lap);

        let mut obs = Observation {
            at: now,
            live_nodes: self.live_nodes(),
            throughput_tps,
            p99_latency,
            mean_utilization,
            queue_depth,
            dollars_per_hour: self.cost.hourly_rate_now(),
            node_loads,
            region_loads: Vec::new(),
            granule_loads,
        };
        // Per-region digests: utilization/queue grouped from placement,
        // then throughput, spend, and (in per-request mode) the queue
        // replaced with the exact attribution (commits are tagged with
        // the client's region; the external coordination service is
        // pinned — and billed — in region 0; queue lengths come from the
        // region's stations, not the utilization excess).
        obs.derive_region_loads();
        let meta_hourly = self.cost.meta_hourly();
        for r in &mut obs.region_loads {
            if self.hist_active {
                let h = self.lat_window.merged(cutoff, Some(r.region.0));
                r.throughput_tps = h.total_weight() as f64 / window_s;
                r.p99_latency = h.p99();
            } else {
                let (weight, p99) = region_stats[r.region.0 as usize];
                r.throughput_tps = weight as f64 / window_s;
                r.p99_latency = p99;
            }
            r.dollars_per_hour = f64::from(r.live_nodes) * self.params.node_hourly
                + if r.region.0 == 0 { meta_hourly } else { 0.0 };
            let region_queues: Vec<f64> = measured_queues
                .iter()
                .filter(|&&(reg, _)| reg == r.region)
                .map(|&(_, q)| q)
                .collect();
            if !region_queues.is_empty() {
                r.queue_depth = region_queues.iter().sum::<f64>() / region_queues.len() as f64;
            }
        }
        self.profiler.lap("observe:regions", &mut lap);
        if self.tracer.is_enabled() {
            self.tracer.instant_args(
                "control",
                "observe",
                now,
                [
                    ("live_nodes", i64::from(obs.live_nodes)),
                    ("tps", obs.throughput_tps as i64),
                ],
            );
        }
        self.profiler.record("observe", prof);
        self.profiler.record_total(prof);
        obs
    }

    /// What `owned` must equal: the full recount, the debug oracle.
    pub(super) fn recount_owned(&self) -> Vec<u64> {
        let mut owned = vec![0u64; self.nodes.len()];
        for g in &self.granules {
            owned[g.owner as usize] += 1;
        }
        owned
    }
}
