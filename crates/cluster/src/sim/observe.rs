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

/// The committed-transaction window `observe` reads throughput and p99
/// from. Its representation is fixed at construction, as
/// [`HeatTracker`]'s is. Both stay because each is what a set of runs
/// is pinned to: every §6 digest and every p99-triggered decision to the
/// exact window, the cohort engine's digest to the histogram.
pub(super) struct LatencyWindow(Window);

enum Window {
    /// Every booked commit as `(commit time, client-perceived latency,
    /// client region, weight)` — weight 1 per commit under the exact
    /// engine. Pruned to [`ClusterSim::MAX_OBSERVE_WINDOW`] as commits
    /// are booked.
    Exact {
        commits: std::collections::VecDeque<(Nanos, Nanos, u16, u32)>,
        regions: u16,
    },
    /// Per-region log-bucketed histograms ([`LatencyHist`]: p99 an
    /// underestimate within 1/32), one slot per virtual second of
    /// *commit time*, so memory does not follow the commit rate.
    ///
    /// Slots are recycled lazily: a write whose second differs from the
    /// slot's tag clears the slot first. [`LatencyWindow::SLOTS`]
    /// exceeds `MAX_OBSERVE_WINDOW` in seconds, so no slot still inside
    /// an observation window is ever recycled (commit timestamps run at
    /// most a few seconds ahead of the event clock — client latencies
    /// are bounded far below the ~68 s of recycle slack).
    ///
    /// With whole-second windows and control ticks on whole seconds (as
    /// in every preset) the cutoff lands on a slot boundary, so the
    /// merged histograms cover exactly the commits the exact window
    /// would retain — any p99 difference is the bucketing error alone.
    Hist {
        /// `(second tag, one histogram per region)`; slot index is
        /// `second % SLOTS`.
        slots: Vec<(u64, Vec<LatencyHist>)>,
    },
}

impl LatencyWindow {
    /// Retained histogram slots (seconds); must exceed
    /// `MAX_OBSERVE_WINDOW / SECOND`.
    const SLOTS: u64 = 128;

    /// An empty window over `regions` regions: histograms when `hist`,
    /// exact tuples otherwise.
    pub(super) fn new(hist: bool, regions: u16) -> Self {
        LatencyWindow(if hist {
            let slots = (0..Self::SLOTS)
                .map(|_| (0u64, vec![LatencyHist::new(); usize::from(regions)]))
                .collect();
            Window::Hist { slots }
        } else {
            Window::Exact {
                commits: std::collections::VecDeque::new(),
                regions,
            }
        })
    }

    /// Whether the window is the histogram representation.
    pub(super) fn is_hist(&self) -> bool {
        matches!(self.0, Window::Hist { .. })
    }

    /// Record a commit (or `weight` commits sharing one walk) at `at`
    /// with client-perceived `latency`.
    pub(super) fn record(&mut self, at: Nanos, latency: Nanos, region: u16, weight: u32) {
        match &mut self.0 {
            Window::Exact { commits, .. } => commits.push_back((at, latency, region, weight)),
            Window::Hist { slots } => {
                let sec = at / SECOND;
                let slot = &mut slots[(sec % Self::SLOTS) as usize];
                if slot.0 != sec {
                    slot.0 = sec;
                    for h in &mut slot.1 {
                        h.clear();
                    }
                }
                slot.1[region as usize].record_n(latency, u64::from(weight));
            }
        }
    }

    /// Drop exact entries older than `MAX_OBSERVE_WINDOW` before
    /// `latest` (a no-op on histograms, which recycle their slots). The
    /// window is kept bounded here, not only by `stats`: scripted
    /// scenarios and the figure benches never observe, and a paper-scale
    /// run commits tens of millions of transactions.
    pub(super) fn prune(&mut self, latest: Nanos) {
        if let Window::Exact { commits, .. } = &mut self.0 {
            let floor = latest.saturating_sub(ClusterSim::MAX_OBSERVE_WINDOW);
            while commits.front().is_some_and(|&(t, ..)| t < floor) {
                commits.pop_front();
            }
        }
    }

    /// `(total weight, weighted p99)` of the commits at or after
    /// `cutoff`: the whole window's, then each region's. The exact window
    /// drops what is older, sorts the rest once and frees the sorted copy
    /// before returning.
    pub(super) fn stats(&mut self, cutoff: Nanos) -> ((u64, Nanos), Vec<(u64, Nanos)>) {
        match &mut self.0 {
            Window::Exact { commits, regions } => {
                commits.retain(|&(t, ..)| t >= cutoff);
                let entries = commits.iter().map(|&(_, l, r, w)| (l, w, r));
                let mut lat: Vec<(Nanos, u32, u16)> = entries.collect();
                lat.sort_unstable_by_key(|&(l, _, _)| l);
                let per_region = (0..*regions)
                    .map(|r| sorted_window_stats(&lat, Some(r)))
                    .collect();
                (sorted_window_stats(&lat, None), per_region)
            }
            Window::Hist { slots } => {
                let stats = |region| {
                    let h = Self::merged(slots, cutoff, region);
                    (h.total_weight(), h.p99())
                };
                let regions = slots.first().map_or(0, |s| s.1.len() as u16);
                let per_region = (0..regions).map(|r| stats(Some(r))).collect();
                (stats(None), per_region)
            }
        }
    }

    /// Merge every slot overlapping `[cutoff, ∞)` — all regions, or one.
    /// Merge order never affects the result (bucket counts add; exact
    /// tuples are re-sorted by value before quantile selection), so the
    /// derived stats are deterministic.
    fn merged(
        slots: &[(u64, Vec<LatencyHist>)],
        cutoff: Nanos,
        region: Option<u16>,
    ) -> LatencyHist {
        let mut out = LatencyHist::new();
        for (sec, hists) in slots {
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
        // Read before the observation's own vectors are allocated: the
        // exact window's sorted copy is freed by then.
        let ((total_weight, p99_latency), region_stats) = self.lat_window.stats(cutoff);
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
            .flat_map(|(_, p)| p.joining().iter().copied())
            .collect();
        let node_loads: Vec<NodeLoad> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| NodeLoad {
                node: NodeId(i as u32),
                region: n.region,
                // Counting a leaving node live would let a reactive
                // policy order another removal every cooldown while the
                // drain waits or runs.
                alive: n.alive && !n.leaving,
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
            live_nodes: live.len() as u32,
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
            let (weight, p99) = region_stats[r.region.0 as usize];
            r.throughput_tps = weight as f64 / window_s;
            r.p99_latency = p99;
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

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_sim::{MICROSECOND, MILLISECOND};

    /// Both representations fed one random weighted stream over three
    /// busy regions and one silent one, read at whole-second cutoffs as
    /// `observe` reads them: the same weights everywhere, and a
    /// histogram p99 that never exceeds the exact one and falls short of
    /// it by at most 1/32 — globally and per region.
    #[test]
    fn histogram_window_stays_within_its_error_bound_of_the_exact_window() {
        let mut inexact = 0u32;
        for window_s in [1u64, 4, 30] {
            let mut exact = LatencyWindow::new(false, 4);
            let mut hist = LatencyWindow::new(true, 4);
            assert!(hist.is_hist() && !exact.is_hist());
            let mut rng = DetRng::seed(window_s);
            let mut at = 0;
            // Past the 128 slots, so histogram slots are recycled.
            for tick in 1..=200u64 {
                // Commits run a little past the tick, as they do ahead of
                // the event clock.
                while at < tick * SECOND {
                    at += rng.range(MILLISECOND, 20 * MILLISECOND);
                    let latency = rng.range(100 * MICROSECOND, 500 * MILLISECOND);
                    let region = rng.range(0, 3) as u16;
                    let weight = rng.range(1, 5_000) as u32;
                    for w in [&mut exact, &mut hist] {
                        w.record(at, latency, region, weight);
                        w.prune(at);
                    }
                }
                let cutoff = tick.saturating_sub(window_s) * SECOND;
                let (e, h) = (exact.stats(cutoff), hist.stats(cutoff));
                assert_eq!(e.1.len(), 4);
                assert_eq!(h.1.len(), 4);
                assert_eq!(e.1[3], (0, 0), "the silent region");
                for (&(ew, ep), &(hw, hp)) in
                    std::iter::once((&e.0, &h.0)).chain(e.1.iter().zip(&h.1))
                {
                    let at = format!("window {window_s} s, tick {tick}");
                    assert_eq!(ew, hw, "{at}");
                    assert!(hp <= ep, "{at}: hist {hp} over exact {ep}");
                    assert!(
                        ep - hp <= hp / 32,
                        "{at}: hist {hp} misses exact {ep} by over 1/32"
                    );
                    inexact += u32::from(hp != ep);
                }
            }
        }
        // The bound was exercised, not only the exact small-count mode.
        assert!(inexact > 1_000, "only {inexact} inexact p99s");
    }
}
