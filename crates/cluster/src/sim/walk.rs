//! The transaction timeline, once: `walk` prices one attempt into a
//! [`Walk`], `book_commit` / `book_abort` book its outcome at a weight.
//! The exact engine (`handle_client_txn`, here) books one walk at weight
//! 1; the cohort engine (`cohort.rs`) books `COHORT_SAMPLES` at weight `w`.

use super::*;

/// How one priced attempt of a transaction ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(super) enum WalkEnd {
    /// Committed; the response reached the client at [`Walk::at`].
    #[default]
    Commit,
    /// The routing tier's entry was stale: one redirect round trip (§4.2).
    Misroute,
    /// A participant's `Append@LSN` lost its CAS (the Figure 7 race).
    CasConflict,
}

/// One priced attempt, as [`ClusterSim::walk`] leaves it: all either
/// client engine needs to book the outcome at a weight. The simulator
/// owns and reuses these, so a walk allocates nothing once they have grown.
#[derive(Default)]
pub(super) struct Walk {
    pub(super) end: WalkEnd,
    /// When the outcome is observed: a commit's response, a redirect's
    /// dispatch, a CAS conflict's slowest append.
    pub(super) at: Nanos,
    /// The closed-loop cycle: dispatch → response for a commit, dispatch
    /// → the retry after backoff for an abort.
    pub(super) cycle: Nanos,
    /// Granules the transaction touches (post-remap, sorted, distinct).
    pub(super) touched: Vec<u64>,
    /// Each op's granule (post-remap), in op order.
    pub(super) op_granules: Vec<u64>,
    /// Commit participants (node indices, sorted, distinct); empty when
    /// the attempt aborted before its commit.
    pub(super) participants: Vec<usize>,
    /// Per-op CPU service charged, as `(node, service)` pairs — the
    /// demand the cohort engine bulk-offers for a walk's unpriced copies.
    pub(super) node_service: Vec<(usize, Nanos)>,
    /// Where the attempt's time went; the components sum to `cycle`.
    pub(super) blame: Blame,
    /// The anchor granule and its owner, the home node (for exemplars).
    pub(super) anchor: u64,
    pub(super) home: u32,
    /// Participants whose CAS failed.
    pub(super) cas_failures: u64,
}

impl ClusterSim {
    /// Price one attempt of `template` issued from `region` at `now` — the
    /// one timeline both client engines book from: route check,
    /// per-op hops and CPU charges, group commit, the vote leg, a *real*
    /// `Append@LSN` CAS plus the storage append per participant, the
    /// response hop. `strikes` sets the backoff an abort draws. Stations,
    /// logs, routes and granule warmth are charged as the walk goes;
    /// metrics, heat and lock horizons only by `book_*`, at a weight.
    pub(super) fn walk(
        &mut self,
        now: Nanos,
        template: &TxnTemplate,
        region: RegionId,
        strikes: u32,
        walk: &mut Walk,
    ) {
        walk.touched.clear();
        walk.op_granules.clear();
        walk.participants.clear();
        walk.node_service.clear();
        walk.blame = Blame::default();
        walk.cas_failures = 0;
        walk.anchor = self.granule_of_key(template, template.anchor, region);
        walk.touched.push(walk.anchor);
        for op in &template.ops {
            let g = self.granule_of_key(template, op.key, region);
            walk.op_granules.push(g);
            walk.touched.push(g);
        }
        walk.touched.sort_unstable();
        walk.touched.dedup();
        let ag = walk.anchor as usize;
        let (route, owner) = (self.routes[ag], self.granules[ag].owner);
        walk.home = owner;

        // Routing (stale cache + redirect, §4.2): one round trip to learn
        // of it, abort, retry after backoff. The wasted round trip is
        // migration fallout (the routing tier lags the ownership move);
        // the backoff is the client's own retry throttle. No attempt
        // NO_WAIT-aborts against a migration: a `MigrationTxn` commits
        // within its worker's one event, so no walk sees it in flight.
        if route != owner {
            let rtt = 2 * self.one_way(region, self.nodes[route as usize].region);
            self.routes[ag] = owner; // the redirect's repair
            let backoff = self.backoff(strikes);
            walk.blame.migration_stall = rtt;
            walk.blame.retry_backoff = backoff;
            (walk.end, walk.at, walk.cycle) = (WalkEnd::Misroute, now, rtt + backoff);
            debug_assert_eq!(walk.blame.total(), walk.cycle, "{:?}", walk.end);
            return;
        }

        // Station queueing while ordered capacity is still provisioning
        // is the policy's lead showing up in the tail — reclassified
        // from `queue_wait` to `provision_lead` for the whole attempt.
        let lead_pending = self
            .pending_plans
            .iter()
            .any(|(_, p)| matches!(p, Plan::Join { .. }));
        // A station's sojourn: `service` of it productive, the rest queueing.
        let at_station = |blame: &mut Blame, service: Nanos, sojourn: Nanos| {
            blame.service = blame.service.saturating_add(service);
            let wait = sojourn.saturating_sub(service);
            if lead_pending {
                blame.provision_lead = blame.provision_lead.saturating_add(wait);
            } else {
                blame.queue_wait = blame.queue_wait.saturating_add(wait);
            }
        };

        // Execute the interactive request loop. Every virtual-time
        // increment from here on has a matching blame component add.
        let home = owner as usize;
        let home_region = self.nodes[home].region;
        let mut t = now;
        for &g in &walk.op_granules {
            let g = g as usize;
            let serve_node = self.granules[g].owner as usize;
            t += self.hop(region, home_region, &mut walk.blame);
            if serve_node != home {
                // Multi-site access (TPC-C remote warehouse): forwarded
                // through the home node to the participant.
                t += self.hop(home_region, self.nodes[serve_node].region, &mut walk.blame);
            }
            let service = self.rng.jittered(self.params.req_service);
            walk.node_service.push((serve_node, service));
            let sojourn = self.nodes[serve_node].cpu.charge(now, t, service);
            t += sojourn;
            at_station(&mut walk.blame, service, sojourn);
            if self.granules[g].cold_left > 0 {
                // Cold cache: GetPage@LSN from the page store.
                let fetch = self.rng.jittered(self.params.get_page_service);
                t += self.params.storage_rtt + fetch;
                walk.blame.network = walk.blame.network.saturating_add(self.params.storage_rtt);
                walk.blame.service = walk.blame.service.saturating_add(fetch);
                self.granules[g].cold_left -= 1;
            }
            if serve_node != home {
                t += self.hop(self.nodes[serve_node].region, home_region, &mut walk.blame);
            }
            t += self.hop(home_region, region, &mut walk.blame);
        }

        // Commit: group commit wait, then the conditional append on each
        // participant's GLog — a *real* CAS against real LSN state.
        let gc_wait = self.rng.jittered(self.params.group_commit_wait);
        t += gc_wait;
        walk.blame.network = walk.blame.network.saturating_add(gc_wait);
        let owners = walk
            .touched
            .iter()
            .map(|&g| self.granules[g as usize].owner);
        walk.participants.extend(owners.map(|o| o as usize));
        walk.participants.sort_unstable();
        walk.participants.dedup();
        if walk.participants.len() > 1 {
            // Two-phase commit across sites: one vote round trip.
            let voter = self.nodes[walk.participants[1]].region;
            let vote = self.hop(home_region, voter, &mut walk.blame);
            t += 2 * vote;
            // `hop` attributed one leg; mirror the second.
            let overlay = self.overlay_penalty(home_region, voter);
            walk.blame.network = walk.blame.network.saturating_add(vote - overlay);
            walk.blame.network_overlay = walk.blame.network_overlay.saturating_add(overlay);
        }
        let mut commit_done = t;
        // Service/sojourn split of the append on the critical path (the
        // slowest participant defines `commit_done`).
        let mut append_split: Option<(Nanos, Nanos)> = None;
        for &p in &walk.participants {
            walk.cas_failures += u64::from(self.nodes[p].append_at_tracked_lsn(p).is_err());
            let (done, service, sojourn) =
                self.storage_append_done(LogId::GLog(NodeId(p as u32)), t);
            if done > commit_done {
                commit_done = done;
                append_split = Some((service, sojourn));
            }
        }
        if let Some((service, sojourn)) = append_split {
            walk.blame.network = walk.blame.network.saturating_add(self.params.storage_rtt);
            at_station(&mut walk.blame, service, sojourn);
        }
        if walk.cas_failures > 0 {
            // Cross-node modification detected at commit (Figure 7 race).
            // The wasted attempt keeps its component split; only the
            // backoff is the retry's own cost.
            let backoff = self.backoff(strikes);
            walk.blame.retry_backoff = backoff;
            walk.end = WalkEnd::CasConflict;
            (walk.at, walk.cycle) = (commit_done, commit_done - now + backoff);
        } else {
            walk.end = WalkEnd::Commit;
            walk.at = commit_done + self.hop(home_region, region, &mut walk.blame);
            walk.cycle = walk.at - now;
        }
        debug_assert_eq!(walk.blame.total(), walk.cycle, "{:?}", walk.end);
    }

    /// Book `w` commits sharing `walk`'s timeline. `latency` and `blame`
    /// are the client-perceived ones: the exact engine's include the
    /// transaction's aborted attempts, a cohort's are the walk's own.
    /// Heat and window weights saturate at `u32::MAX` per walk (~4 billion
    /// commits in one 100 ms step is beyond any modeled scale), counts don't.
    pub(super) fn book_commit(
        &mut self,
        walk: &Walk,
        w: u64,
        region: RegionId,
        latency: Nanos,
        blame: &Blame,
    ) {
        self.metrics.commit_n(walk.at, latency, w);
        self.metrics.coord.commit_cas_attempts += w * walk.participants.len() as u64;
        self.metrics.blame_n(blame, w);
        self.exemplars.offer(TailExemplar {
            at: walk.at,
            latency,
            granule: walk.anchor,
            node: walk.home,
            region: region.0,
            weight: w,
            blame: *blame,
        });
        let w32 = u32::try_from(w).unwrap_or(u32::MAX);
        self.lat_window.record(walk.at, latency, region.0, w32);
        self.region_commits[region.0 as usize] += w;
        for &g in &walk.touched {
            let gran = &mut self.granules[g as usize];
            gran.busy_until = gran.busy_until.max(walk.at);
            self.heat.record(g as usize, w32);
        }
    }

    /// Book `w` aborts sharing `walk`'s outcome. Each copy of a CAS
    /// conflict tried every participant's CAS and lost `cas_failures` of
    /// them (none and 0 when the attempt never reached its commit).
    /// Service-backed routers repair a stale route from the external
    /// coordination service (a metered read); Marlin's redirect comes
    /// from the node itself (§4.2) — no coordination op.
    pub(super) fn book_abort(&mut self, walk: &Walk, w: u64) {
        self.metrics.abort_n(walk.at, w);
        self.metrics.coord.commit_cas_attempts += w * walk.participants.len() as u64;
        self.metrics.coord.commit_cas_retries += w * walk.cas_failures;
        if walk.end == WalkEnd::Misroute && matches!(self.backend, CoordBackend::Service(_)) {
            self.metrics.coord.service_reads += w;
        }
    }

    pub(super) fn one_way(&mut self, a: RegionId, b: RegionId) -> Nanos {
        let base = if a == b {
            // Intra-region RTT/2 with 10% jitter.
            let base = self.params.intra_rtt / 2;
            base + self.rng.range(0, base / 5 + 1)
        } else {
            self.params.regions.link(a, b).sample(&mut self.rng)
        };
        base + self.overlay_penalty(a, b)
    }

    /// [`Self::one_way`] with blame attribution: the overlay surcharge
    /// (pure arithmetic, recomputed — no extra randomness) lands in
    /// `network_overlay`, the rest in `network`. RNG draws are
    /// identical to a bare `one_way` call, so instrumented paths keep
    /// bit-identical event streams.
    fn hop(&mut self, a: RegionId, b: RegionId, blame: &mut Blame) -> Nanos {
        let hop = self.one_way(a, b);
        let overlay = self.overlay_penalty(a, b);
        blame.network = blame.network.saturating_add(hop - overlay);
        blame.network_overlay = blame.network_overlay.saturating_add(overlay);
        hop
    }

    /// Storage append completion for `log`: half RTT out, service at the
    /// log's station (a node's own, or the SysLog's), half RTT back.
    /// Returns `(done, service, sojourn)` so the caller can attribute the
    /// append's time: `done - at` is the full round trip (`storage_rtt +
    /// sojourn`), of which `service` is productive and `sojourn - service`
    /// is station queueing.
    pub(super) fn storage_append_done(&mut self, log: LogId, at: Nanos) -> (Nanos, Nanos, Nanos) {
        let service = self.rng.jittered(self.params.append_service);
        let out = at + self.params.storage_rtt / 2;
        let station = match log {
            LogId::SysLog => &mut self.syslog_station,
            LogId::GLog(n) | LogId::DataWal(n) => &mut self.nodes[n.0 as usize].append_station,
        };
        let sojourn = station.charge(out, service);
        (
            out + sojourn + self.params.storage_rtt / 2,
            service,
            sojourn,
        )
    }

    fn backoff(&mut self, strikes: u32) -> Nanos {
        let exp = self
            .params
            .backoff_base
            .saturating_mul(1 << strikes.min(16));
        let cap = exp.min(self.params.backoff_cap);
        self.rng.range(cap / 2, cap + 1)
    }

    /// The granule holding `key` for a client in `region`.
    ///
    /// Geo deployment: clients only touch data homed in their own region
    /// (§6.5), so the key's granule is folded into the region's set. A
    /// region with no initial nodes owns no granules — its clients fall
    /// back to the global granule space rather than folding into an
    /// empty set (found by fuzzing: `g % 0` panicked).
    pub(super) fn granule_of_key(&self, template: &TxnTemplate, key: u64, region: RegionId) -> u64 {
        let g = if template.kind == 0 {
            // YCSB: 64 keys per granule (64 KB granules of 1 KB tuples).
            (key / 64).min(self.granules.len() as u64 - 1)
        } else {
            // TPC-C: warehouse-major composite keys.
            TpccConfig::warehouse_of(key).min(self.granules.len() as u64 - 1)
        };
        if self.region_blocks.len() <= 1 {
            return g;
        }
        let blocks = &self.region_blocks[region.0 as usize];
        match blocks.last() {
            Some(&(total, _)) if total > 0 => {
                // The block holding the region's `local`-th granule: the
                // last one that starts at or before it.
                let local = g % total;
                blocks
                    .iter()
                    .rev()
                    .find(|&&(offset, _)| offset <= local)
                    .map_or(g, |&(offset, first)| first + (local - offset))
            }
            _ => g,
        }
    }

    /// One exact client's next attempt: one walk at the client's own
    /// strike count, booked at weight 1. Latency and blame run from the
    /// *first* attempt, so a commit carries what its aborted ones cost.
    pub(super) fn handle_client_txn(&mut self, now: Nanos, client: u32) {
        let c = client as usize;
        if !self.clients[c].active {
            self.clients[c].attempt_started = None;
            self.clients[c].attempt_blame = Blame::default();
            return;
        }
        let started = *self.clients[c].attempt_started.get_or_insert(now);
        let template = self.clients[c].gen.next_txn();
        let (region, strikes) = (self.clients[c].region, self.clients[c].strikes);
        let mut walk = std::mem::take(&mut self.exact_walk);
        self.walk(now, &template, region, strikes, &mut walk);
        if walk.end == WalkEnd::Commit {
            let mut blame = self.clients[c].attempt_blame;
            blame.add(&walk.blame);
            self.book_commit(&walk, 1, region, walk.at - started, &blame);
            self.lat_window.prune(walk.at);
            self.clients[c].strikes = 0;
            self.clients[c].attempt_started = None;
            self.clients[c].attempt_blame = Blame::default();
            // Closed loop: next transaction immediately after the response.
            self.queue
                .schedule_at(walk.at, ActorId(0), Event::ClientTxn { client });
        } else {
            self.book_abort(&walk, 1);
            self.clients[c].strikes = strikes.saturating_add(1);
            self.clients[c].attempt_blame.add(&walk.blame);
            self.queue
                .schedule(walk.cycle, ActorId(0), Event::ClientTxn { client });
        }
        self.exact_walk = walk;
    }
}
