//! The cluster simulator: the paper's testbed in virtual time.
//!
//! The simulator combines **real coordination state** with **modeled
//! time**:
//!
//! - Every node owns the CAS state of its GLog (which doubles as its
//!   data WAL) — the log's LSN, compared and advanced exactly as
//!   `SharedLog::conditional_append` does — and a real `LsnTracker`;
//!   Marlin's metadata commits and the membership stress test perform
//!   actual conditional appends against it, so CAS conflicts, retries,
//!   and the Figure 15 contention collapse *emerge* from the protocol
//!   rather than being scripted. What is not kept is the records:
//!   payloads are not modeled and nothing reads a simulated log back,
//!   so a log is its LSN and memory does not grow with a run's commits.
//! - Network hops, CPU service, storage appends, page reads, and the
//!   baseline coordination services are priced through latency models and
//!   queueing stations ([`marlin_sim`]).
//!
//! Transactions are simulated at flow level: each interactive transaction
//! computes its full timeline (16 request round trips through the node's
//! CPU station, cold-page fetches, group commit, log CAS) in one event and
//! schedules its own completion; NO_WAIT conflicts are enforced through
//! per-granule busy windows and migration marks. This keeps 100K-migration
//! scale-outs tractable while preserving queueing behavior (stations are
//! work-conserving across interleaved offers).
//!
//! Node CPU congestion is priced by one of two station models, selected
//! per run via [`SimParams::cpu_model`]: [`CpuStation`] (the analytic EMA
//! default, bit-identical to historical decision logs) or
//! [`PerRequestStation`] (a per-request reservation calendar yielding
//! exact sojourn times and real queue lengths). See
//! [`crate::params::CpuModel`] for the trade-off.

use crate::cost::CostModel;
use crate::metrics::{Blame, RunMetrics, TailExemplar, TailExemplars};
use crate::params::{ClientEngine, CoordKind, CpuModel, SimParams};
use marlin_autoscaler::{GranuleLoad, NodeLoad, Observation, ScaleAction};
use marlin_baselines::{CoordReply, CoordRequest, CoordinationService, FdbService, ZkService};
use marlin_common::{GranuleId, LogId, Lsn, NodeId, RegionId};
use marlin_core::LsnTracker;
use marlin_sim::{ActorId, DetRng, EventQueue, HeatTracker, Nanos, TimeSeries, SECOND};
use marlin_telemetry::{CoordBreakdown, CoordOps, LatencyHist, ProfileSummary, Profiler, Tracer};
use marlin_workload::{
    interleaved_share, TpccConfig, TpccGenerator, TxnTemplate, YcsbConfig, YcsbGenerator,
};

/// Fork label of the heat sketch's row-seed stream (pure fork: drawing
/// it consumes nothing from the main stream, so exact-path RNG
/// trajectories are unchanged whether or not the sketch is on).
const FORK_SKETCH: u64 = 7001;

/// Fork label of the cohort engine's generator base stream; per-cohort
/// generator streams are derived from it by region index.
const FORK_COHORT: u64 = 7002;

/// Analytic (EMA) CPU congestion station — [`CpuModel::Analytic`].
///
/// Transactions compute their full timeline in a single event, which means
/// CPU demands arrive out of chronological order — a naive FIFO queue
/// station would serialize unrelated transactions behind far-future
/// bookings. This station instead tracks an exponentially-averaged
/// utilization (offered work per unit time over a 0.5 s EMA constant) and charges
/// each request its service time plus an M/M/c-style congestion delay
/// `service * rho / (1 - rho)` with `rho` clamped at 0.98. The closed-loop
/// clients then settle into the classic equilibrium: an overloaded 8-node
/// cluster saturates near its capacity, and the scale-out to 16 relieves
/// it (the Figure 9 shape).
///
/// The clamp is also the model's known blind spot: under sustained
/// overload per-request delay caps at `49 × service`, so tail latency
/// flattens where a real queue keeps growing. [`PerRequestStation`]
/// removes that approximation at a higher bookkeeping cost.
pub struct CpuStation {
    workers: f64,
    /// EMA load estimator: expected value = arrival_rate x mean_service.
    load: f64,
    last: Nanos,
}

/// EMA time constant for the analytic CPU load estimator (0.5 s).
const CPU_TAU: f64 = 0.5e9;

impl CpuStation {
    /// An idle station with `workers` service threads.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        CpuStation {
            workers: workers as f64,
            load: 0.0,
            last: 0,
        }
    }

    /// Charge `service` work arriving at `at`; returns service + modeled
    /// queueing delay.
    pub fn charge(&mut self, at: Nanos, service: Nanos) -> Nanos {
        if at > self.last {
            let dt = (at - self.last) as f64;
            self.load *= (-dt / CPU_TAU).exp();
            self.last = at;
        }
        self.load += service as f64 / CPU_TAU;
        let rho = (self.load / self.workers).min(0.98);
        let delay = service as f64 * rho / (1.0 - rho);
        service + delay as Nanos
    }

    /// Deposit `service` offered work at `at` without pricing a sojourn —
    /// the cohort engine's bulk path for the unmaterialized copies of a
    /// sampled walk. The load EMA is linear in offered work, so this has
    /// exactly the effect of charging each copy individually at `at`;
    /// only the per-copy congestion delay (which no materialized request
    /// is waiting on) is skipped.
    pub fn offer(&mut self, at: Nanos, service: Nanos) {
        if at > self.last {
            let dt = (at - self.last) as f64;
            self.load *= (-dt / CPU_TAU).exp();
            self.last = at;
        }
        self.load += service as f64 / CPU_TAU;
    }

    /// Read-only utilization estimate at `at` (load decayed to the
    /// observation instant, *not* clamped to the service ceiling — values
    /// above 1 expose queue build-up to the autoscaler).
    #[must_use]
    pub fn rho_at(&self, at: Nanos) -> f64 {
        let load = if at > self.last {
            self.load * (-((at - self.last) as f64) / CPU_TAU).exp()
        } else {
            self.load
        };
        load / self.workers
    }
}

/// One reserved service slot on a [`PerRequestStation`] worker.
#[derive(Clone, Copy, Debug)]
struct Booking {
    /// When the request reached the station.
    arrival: Nanos,
    /// When its service begins (≥ `arrival`; the gap is real queueing).
    start: Nanos,
    /// When its service completes (`start + service`).
    end: Nanos,
}

/// Per-request queueing CPU station — [`CpuModel::PerRequest`].
///
/// Every request books a concrete, contiguous service slot on a concrete
/// worker and its reported latency is the *exact sojourn time*: waiting
/// plus service, with no analytic smoothing or saturation clamp. Because
/// the simulator offers CPU demands out of chronological order (a
/// transaction's whole timeline is computed in one event), the station is
/// a reservation calendar rather than a running queue: each worker keeps
/// its booked intervals sorted by start time, and a new request takes the
/// earliest-completing feasible slot across workers — gaps left in front
/// of far-future bookings are filled, which keeps the station
/// work-conserving across interleaved offers (an early arrival is never
/// serialized behind an unrelated transaction's future booking).
///
/// Observability is exact too, and *windowed* like every other
/// observation field. The station accumulates two integrals into 100 ms
/// buckets as slots are booked:
///
/// - **offered work** (service demand, keyed by arrival time) —
///   [`PerRequestStation::rho_windowed`] reads it as offered load per
///   worker-capacity over a trailing window. This is the *same
///   quantity* the analytic station's EMA estimates, measured exactly,
///   so the reactive watermarks calibrated against offered load keep
///   their meaning in both modes (a busy+waiting occupancy reading
///   would run structurally hotter and sit on the 80% watermark at
///   healthy load);
/// - **waiting time** (the queue-length integral) —
///   [`PerRequestStation::queue_windowed`] reads it as the real queue
///   length per worker, time-averaged over the window. This is what
///   `Observation::queue_depth` reports in per-request mode, measured
///   directly instead of derived from a utilization excess.
///
/// [`PerRequestStation::queue_len_at`] and
/// [`PerRequestStation::in_system_at`] expose the instantaneous view
/// for tests and debugging (a single-sample probe is too noisy to
/// drive threshold policies).
///
/// Bookings wholly in the past of the event clock are pruned when a
/// charge finds the clock advanced, so memory tracks the in-flight
/// transaction window, not the run length.
///
/// **Invariant and cost.** A worker's slots never overlap (a zero-length
/// slot never lies strictly inside another), and each new slot is
/// inserted where its scan stopped, so every calendar is sorted by slot
/// start *and* by slot end. That makes the dead bookings a front prefix
/// and lets a charge binary-search the first booking still busy at the
/// arrival: per worker it costs O(log n) plus the contiguous busy run it
/// has to step over, whatever the backlog `n` — measured on
/// `sim_geo_perrequest`, 6.6 scan steps per charge against calendars
/// holding 294 bookings, where a scan from the front took 209.
pub struct PerRequestStation {
    /// Per-worker reservation calendars, each sorted by slot start and
    /// by slot end.
    workers: Vec<Vec<Booking>>,
    /// Offered-work integral per [`BUCKET`] of virtual time (each
    /// request's service demand deposited at its arrival), ring-indexed
    /// as `(bucket id, nanoseconds offered in it)`.
    offered_ring: Vec<(u64, u64)>,
    /// Waiting-time integral (queue length × time) per bucket.
    wait_ring: Vec<(u64, u64)>,
    /// Event clock of the last calendar pruning — nothing new can die
    /// until the clock advances, so same-event charges (a transaction's
    /// whole timeline prices in one event) skip the pruning pass.
    pruned_at: Nanos,
}

/// Bucket width of the windowed-occupancy rings (100 ms).
const BUCKET: Nanos = 100 * 1_000_000;

/// Ring length in buckets: covers the 60 s maximum observation window
/// plus 70 s of booking lookahead under deep backlog. A booking whose
/// lookahead exceeded that budget would recycle a slot still inside a
/// live trailing window and silently under-report occupancy;
/// [`PerRequestStation::charge`] debug-asserts the invariant instead
/// (paper-scale backlogs book a few seconds ahead at most).
const RING: u64 = 1_300;

/// The lookahead budget the ring affords: bookings may end at most this
/// far past the event clock without endangering reads over the maximum
/// observation window. One extra bucket is reserved because a windowed
/// read spans `window/BUCKET + 1` buckets (the window-edge bucket is
/// included whole).
const MAX_LOOKAHEAD: Nanos = RING * BUCKET - ClusterSim::MAX_OBSERVE_WINDOW - BUCKET;

/// The ring slot for `bucket`, recycled (tag rewritten, value zeroed)
/// if it still holds an older bucket's total.
fn ring_slot(ring: &mut [(u64, u64)], bucket: u64) -> &mut u64 {
    let slot = &mut ring[(bucket % RING) as usize];
    if slot.0 != bucket {
        *slot = (bucket, 0);
    }
    &mut slot.1
}

/// Distribute the interval `[from, to)` into the ring's buckets.
fn deposit(ring: &mut [(u64, u64)], from: Nanos, to: Nanos) {
    let mut t = from;
    while t < to {
        let bucket = t / BUCKET;
        let edge = ((bucket + 1) * BUCKET).min(to);
        *ring_slot(ring, bucket) += edge - t;
        t = edge;
    }
}

/// Integrate the ring over `[cutoff, at]`, prorating the partially
/// covered edge buckets by their overlap (a whole-bucket sum would
/// systematically under-report short windows) and skipping recycled
/// slots.
fn ring_integral(ring: &[(u64, u64)], cutoff: Nanos, at: Nanos) -> f64 {
    let mut sum = 0.0;
    for bucket in (cutoff / BUCKET)..=(at / BUCKET) {
        let slot = ring[(bucket % RING) as usize];
        if slot.0 != bucket {
            continue;
        }
        let b_start = bucket * BUCKET;
        let overlap = (b_start + BUCKET)
            .min(at)
            .saturating_sub(b_start.max(cutoff));
        sum += slot.1 as f64 * overlap as f64 / BUCKET as f64;
    }
    sum
}

impl PerRequestStation {
    /// An idle station with `workers` service threads.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "a station needs at least one worker");
        PerRequestStation {
            workers: vec![Vec::new(); workers],
            offered_ring: vec![(u64::MAX, 0); RING as usize],
            wait_ring: vec![(u64::MAX, 0); RING as usize],
            pruned_at: 0,
        }
    }

    /// Admit a request arriving at `at` with `service` demand; returns its
    /// exact sojourn time (waiting + service).
    ///
    /// `now` is the dispatching event's timestamp. Events pop in
    /// non-decreasing time order and every charge or observation happens
    /// at or after its event's `now`, so bookings that end at or before
    /// `now` can never be looked at again — they are pruned here, which
    /// bounds the calendars to the in-flight window.
    pub fn charge(&mut self, now: Nanos, at: Nanos, service: Nanos) -> Nanos {
        debug_assert!(at >= now, "arrivals cannot precede the event clock");
        if now > self.pruned_at {
            // Ends are sorted, so the dead bookings are a front prefix.
            for calendar in &mut self.workers {
                let dead = calendar.partition_point(|b| b.end <= now);
                calendar.drain(..dead);
            }
            self.pruned_at = now;
        }
        // Earliest feasible start per worker. Bookings ending at or
        // before `at` cannot move the candidate, and ends are sorted, so
        // the scan starts at the first booking still busy at `at` and
        // pushes the candidate past every overlapping booking until a
        // gap of `service` length opens (or the calendar ends).
        let (mut start, mut w, mut pos) = (Nanos::MAX, 0, 0);
        for (i, calendar) in self.workers.iter().enumerate() {
            let mut candidate = at;
            let mut k = calendar.partition_point(|b| b.end <= at);
            while let Some(b) = calendar.get(k) {
                if b.start >= candidate.saturating_add(service) {
                    break; // the gap before `b` fits the whole slot
                }
                candidate = candidate.max(b.end);
                k += 1;
            }
            // Strict `<` keeps the lowest worker index on ties, which
            // makes slot assignment deterministic.
            if i == 0 || candidate < start {
                (start, w, pos) = (candidate, i, k);
                if start == at {
                    break; // no later worker can start strictly earlier
                }
            }
        }
        let end = start + service;
        debug_assert!(
            end.saturating_sub(now) <= MAX_LOOKAHEAD,
            "booking lookahead {} ns overflows the occupancy ring's {} ns budget",
            end.saturating_sub(now),
            MAX_LOOKAHEAD,
        );
        deposit(&mut self.wait_ring, at, start);
        // Offered work is a point event: the whole service demand lands
        // in the arrival's bucket (uniform within it, as far as a
        // prorated read can tell).
        *ring_slot(&mut self.offered_ring, at / BUCKET) += service;
        // Everything the scan passed ends at or before `start` and
        // everything from `pos` on starts at or after `end`, so the slot
        // goes exactly where the scan stopped and both orders hold.
        let calendar = &mut self.workers[w];
        debug_assert!(pos == 0 || calendar[pos - 1].end <= start);
        debug_assert!(calendar.get(pos).is_none_or(|b| b.start >= end));
        calendar.insert(
            pos,
            Booking {
                arrival: at,
                start,
                end,
            },
        );
        end - at
    }

    /// Deposit `service` offered work at `at` without booking a slot —
    /// the cohort engine's bulk path. The windowed offered-load
    /// observable (what the autoscaler watches) sees the full aggregate
    /// demand; the reservation calendars see only the sampled walks, so
    /// sojourn congestion in cohort runs is sampled rather than exact.
    pub fn offer(&mut self, at: Nanos, service: Nanos) {
        *ring_slot(&mut self.offered_ring, at / BUCKET) += service;
    }

    /// Bookings the calendars hold: every slot ending after the event
    /// clock of the last charge — in service, waiting, or reserved ahead.
    #[must_use]
    pub fn bookings(&self) -> usize {
        self.workers.iter().map(Vec::len).sum()
    }

    /// Requests in the system at `at`: arrived (admitted at or before
    /// `at`) and not yet departed.
    #[must_use]
    pub fn in_system_at(&self, at: Nanos) -> usize {
        self.workers
            .iter()
            .flatten()
            .filter(|b| b.arrival <= at && b.end > at)
            .count()
    }

    /// Real queue length at `at`: requests that have arrived but whose
    /// service has not yet started.
    #[must_use]
    pub fn queue_len_at(&self, at: Nanos) -> usize {
        self.workers
            .iter()
            .flatten()
            .filter(|b| b.arrival <= at && b.start > at)
            .count()
    }

    /// Instantaneous in-system occupancy at `at` in worker units:
    /// `in_system / workers`. A single-sample probe — noisy by nature;
    /// observations use [`PerRequestStation::rho_windowed`] instead.
    #[must_use]
    pub fn rho_at(&self, at: Nanos) -> f64 {
        self.in_system_at(at) as f64 / self.workers.len() as f64
    }

    /// Measured offered load over the trailing `window` ending at `at`,
    /// in worker units: service demand that arrived in the window
    /// divided by the capacity the window held (`workers × window`).
    ///
    /// This is the exact-measurement counterpart of
    /// [`CpuStation::rho_at`] — the same offered-load quantity the EMA
    /// estimates, so policy watermarks keep one meaning across both
    /// models. Values above 1 mean demand arrived faster than the
    /// station could serve (backlog grew); under sustained closed-loop
    /// saturation completions gate arrivals, so the value hovers near 1
    /// while the backlog itself shows up in
    /// [`PerRequestStation::queue_windowed`] and in the sojourn times.
    /// Edge buckets are prorated by overlap (100 ms quantization).
    #[must_use]
    pub fn rho_windowed(&self, at: Nanos, window: Nanos) -> f64 {
        let cutoff = at.saturating_sub(window.max(BUCKET));
        let span = (at - cutoff).max(1);
        let offered = ring_integral(&self.offered_ring, cutoff, at);
        offered / (span as f64 * self.workers.len() as f64)
    }

    /// Real queue length per worker, time-averaged over the trailing
    /// `window` ending at `at`: the waiting-time integral (queue length
    /// × time, from each booking's arrival→start gap) divided by
    /// `workers × window`. Measured directly — not derived from a
    /// utilization excess. Edge buckets are prorated by overlap.
    #[must_use]
    pub fn queue_windowed(&self, at: Nanos, window: Nanos) -> f64 {
        let cutoff = at.saturating_sub(window.max(BUCKET));
        let span = (at - cutoff).max(1);
        let wait = ring_integral(&self.wait_ring, cutoff, at);
        wait / (span as f64 * self.workers.len() as f64)
    }
}

/// A node's CPU station: one of the two [`CpuModel`]s, behind one call
/// surface. The analytic arm ignores the event clock (`now`); the
/// per-request arm uses it to prune dead bookings.
enum NodeCpu {
    Analytic(CpuStation),
    PerRequest(PerRequestStation),
}

impl NodeCpu {
    fn new(model: CpuModel, workers: usize) -> Self {
        match model {
            CpuModel::Analytic => NodeCpu::Analytic(CpuStation::new(workers)),
            CpuModel::PerRequest => NodeCpu::PerRequest(PerRequestStation::new(workers)),
        }
    }

    fn charge(&mut self, now: Nanos, at: Nanos, service: Nanos) -> Nanos {
        match self {
            NodeCpu::Analytic(s) => s.charge(at, service),
            NodeCpu::PerRequest(s) => s.charge(now, at, service),
        }
    }

    /// The utilization an observation reports: offered load, as the EMA
    /// estimate decayed to `at` (analytic) or measured exactly over the
    /// trailing `window` (per-request).
    fn observed_rho(&self, at: Nanos, window: Nanos) -> f64 {
        match self {
            NodeCpu::Analytic(s) => s.rho_at(at),
            NodeCpu::PerRequest(s) => s.rho_windowed(at, window),
        }
    }

    /// Bulk-deposit offered work without pricing a sojourn (cohort
    /// engine): the EMA estimator (analytic) or the offered-load ring
    /// (per-request) absorbs the aggregate demand of a sampled walk's
    /// unmaterialized copies.
    fn offer(&mut self, at: Nanos, service: Nanos) {
        match self {
            NodeCpu::Analytic(s) => s.offer(at, service),
            NodeCpu::PerRequest(s) => s.offer(at, service),
        }
    }

    /// The measured queue length per worker over the window, when the
    /// model can measure one (`None` tells the observation to fall back
    /// to the modeled utilization excess).
    fn observed_queue(&self, at: Nanos, window: Nanos) -> Option<f64> {
        match self {
            NodeCpu::Analytic(_) => None,
            NodeCpu::PerRequest(s) => Some(s.queue_windowed(at, window)),
        }
    }
}

/// A shared log as the simulator keeps it: the LSN, which is all of a
/// log's state that `Append@LSN` compares against and all the simulator
/// ever reads back. Payloads are not modeled, so no record is retained
/// and memory does not grow with the commits of a run.
#[derive(Default)]
struct SimLog(Lsn);

impl SimLog {
    /// Unconditional append of one record; returns the new LSN.
    fn append(&mut self) -> Lsn {
        self.0 = Lsn(self.0 .0 + 1);
        self.0
    }

    /// `Append@LSN`: appends one record iff the log is at `expected`,
    /// otherwise fails with the log's current LSN (what
    /// `StorageError::LsnMismatch` carries) so the caller can refresh
    /// its tracker.
    fn conditional_append(&mut self, expected: Lsn) -> Result<Lsn, Lsn> {
        if self.0 == expected {
            Ok(self.append())
        } else {
            Err(self.0)
        }
    }
}

/// One simulated compute node.
struct NodeSim {
    /// Region the node runs in.
    region: RegionId,
    /// CPU congestion station (4 vCPU), in whichever [`CpuModel`] the
    /// run's [`SimParams`] selected.
    cpu: NodeCpu,
    /// The node's GLog (metadata + data WAL): real CAS state, no payloads.
    glog: SimLog,
    /// The node's H-LSN tracker.
    tracker: LsnTracker,
    /// Storage-side append station for this log. Always analytic: append
    /// bandwidth is not the subject of the per-request model, and user
    /// commits book at out-of-order future times (see [`CpuStation`]).
    append_station: CpuStation,
    /// Whether the node is a live member.
    alive: bool,
}

impl NodeSim {
    /// `Append@LSN` on this node's GLog (node index `id`) at the LSN its
    /// tracker last saw. Either way the tracker learns where the log is:
    /// the new LSN, or on a lost CAS the current one.
    fn append_at_tracked_lsn(&mut self, id: usize) -> Result<Lsn, Lsn> {
        let log = LogId::GLog(NodeId(id as u32));
        let outcome = self.glog.conditional_append(self.tracker.get(log));
        let (Ok(lsn) | Err(lsn)) = outcome;
        self.tracker.observe(log, lsn);
        outcome
    }
}

/// One granule's dynamic state.
#[derive(Clone, Copy)]
struct GranuleSim {
    /// Authoritative owner (node index).
    owner: u32,
    /// A migration transaction currently holds this granule.
    migrating: bool,
    /// Latest completion time of any user transaction touching it
    /// (NO_WAIT lock horizon).
    busy_until: Nanos,
    /// Cold-page fetches remaining before the granule is warm at its
    /// current owner (0 = warm).
    cold_left: u32,
}

/// The per-client workload stream.
enum ClientGen {
    Ycsb(YcsbGenerator),
    Tpcc(TpccGenerator),
}

impl ClientGen {
    fn next_txn(&mut self) -> TxnTemplate {
        match self {
            ClientGen::Ycsb(g) => g.next_txn(),
            ClientGen::Tpcc(g) => g.next_txn(),
        }
    }
}

/// One closed-loop interactive client.
struct ClientSim {
    region: RegionId,
    gen: ClientGen,
    /// Consecutive aborts (drives exponential backoff, capped 100 ms §6.1.4).
    strikes: u32,
    /// Clients beyond the active count idle until re-activated (dynamic
    /// workload scenario).
    active: bool,
    /// First dispatch time of the transaction currently being retried
    /// (client-perceived latency includes retries).
    attempt_started: Option<Nanos>,
    /// Blame accrued by aborted attempts of the in-flight transaction;
    /// folded into the commit's attribution so the components sum to
    /// the client-perceived latency (which includes retries).
    attempt_blame: Blame,
}

/// One flow-level client cohort: every client of one region, advanced
/// together by [`Event::CohortStep`] instead of one event per client
/// ([`ClientEngine::Cohort`] at or above the activation threshold).
struct Cohort {
    /// The region whose clients this cohort aggregates.
    region: RegionId,
    /// Clients the cohort *could* activate (its share of the peak).
    members: u32,
    /// Currently active clients.
    active: u32,
    /// Representative workload stream (forked per cohort, so workload
    /// draws are independent of every other deterministic stream).
    gen: ClientGen,
    /// Fractional transactions carried between steps, so the long-run
    /// rate is exact despite integer per-step counts.
    carry: f64,
}

/// One sampled representative transaction walk of a cohort step. The
/// walk prices a full timeline through the real stations/logs exactly
/// like a per-client transaction; the step handler then replays its
/// outcome with an aggregate weight.
enum CohortWalk {
    /// The walk committed.
    Commit {
        /// Response time back at the client.
        t_end: Nanos,
        /// Granules the transaction touched (post-remap, deduped).
        touched: Vec<u64>,
        /// Commit participants (node indices, deduped).
        participants: Vec<usize>,
        /// Per-op CPU service charged, as `(node, service)` pairs — the
        /// demand bulk-offered on behalf of the walk's weighted copies.
        node_service: Vec<(usize, Nanos)>,
        /// Where the walk's sojourn went (components sum to
        /// `t_end - now`; replayed per weighted copy).
        blame: Blame,
        /// The walk's anchor granule (exemplar attribution).
        anchor: u64,
        /// The home node that served the walk (exemplar attribution).
        home: u32,
    },
    /// The walk aborted (misroute, NO_WAIT, or commit CAS conflict).
    Abort {
        /// When the abort is observed.
        at: Nanos,
        /// The abort consumed a metered coordination-service read
        /// (misroute refresh on a service-backed deployment).
        coord_read: bool,
        /// The abort was a commit-time CAS conflict (counted as a
        /// retry in the coordination-op breakdown).
        cas_retry: bool,
        /// Virtual time until the client would retry (the closed-loop
        /// cycle this walk contributes to the step's mean).
        cycle: Nanos,
        /// CPU service charged before the abort (bulk-offered like the
        /// commit arm's).
        node_service: Vec<(usize, Nanos)>,
    },
}

impl CohortWalk {
    /// The closed-loop cycle time this walk observed: dispatch →
    /// response for commits, dispatch → scheduled retry for aborts.
    fn cycle(&self, now: Nanos) -> Nanos {
        match self {
            CohortWalk::Commit { t_end, .. } => t_end - now,
            CohortWalk::Abort { cycle, .. } => *cycle,
        }
    }
}

/// `(total weight, weighted p99)` of one region's samples (all samples
/// for `None`) in `(latency, weight, region)` entries sorted by latency
/// (ties in any order). With unit weights this is exactly the historical
/// `sorted[(len - 1) * 99 / 100]` index rule: the first sample whose
/// cumulative weight exceeds `(total - 1) * 99 / 100` is at that index.
fn sorted_window_stats(sorted: &[(Nanos, u32, u16)], region: Option<u16>) -> (u64, Nanos) {
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
struct LatencyWindow {
    /// `(second tag, one histogram per region)`; slot index is
    /// `second % SLOTS`. Empty when the hist path is inactive.
    slots: Vec<(u64, Vec<LatencyHist>)>,
}

impl LatencyWindow {
    /// Retained slots (seconds); must exceed `MAX_OBSERVE_WINDOW / SECOND`.
    const SLOTS: u64 = 128;

    /// A window for `regions` regions, or a zero-footprint stub when
    /// `regions == 0` (the hist path is inactive).
    fn new(regions: usize) -> Self {
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
    fn record(&mut self, at: Nanos, latency: Nanos, region: u16, weight: u64) {
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

/// The external coordination service, if any.
enum CoordBackend {
    Marlin,
    Zk(ZkService),
    Fdb(FdbService),
}

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
enum PendingPlan {
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
    fn reserved_slots(&self) -> &[u32] {
        match self {
            PendingPlan::Built { activate, .. } => activate,
            PendingPlan::ScaleOut { slots, .. } => slots,
        }
    }
}

/// Simulator events.
enum Event {
    /// A client dispatches its next transaction (or retries).
    ClientTxn { client: u32 },
    /// A client cohort advances one flow-level step (cohort engine).
    CohortStep { cohort: u32 },
    /// A migration worker thread picks up its next task.
    MigWorker { worker: u32 },
    /// A granule's proactive warm-up finished.
    WarmupDone { granule: u64 },
    /// The periodic ownership broadcast reached the routing tier (§4.2:
    /// "compute nodes can periodically broadcast updates of their owned
    /// GTable partitions to routers, thereby reducing redirections").
    RouteUpdate { granule: u64 },
    /// Periodic cost sampling.
    CostTick,
    /// One virtual member fires its membership update (Figure 15).
    MembershipTick { member: u32 },
    /// Dynamic scenario: change the number of active clients.
    SetClients { count: u32 },
    /// Geo scenario: change one region's active client count (clients are
    /// interleaved over regions; region `r`'s clients are `r, r+R, ...`).
    SetRegionClients { region: u16, count: u32 },
    /// Dynamic scenario: start a migration plan (scale-out or scale-in).
    StartPlan { plan_idx: usize },
    /// Dynamic scenario: drain `victims` onto survivors (the plan is built
    /// at fire time against current ownership).
    StartDrain {
        victims: Vec<u32>,
        threads_per_victim: u32,
    },
    /// Scale-in bookkeeping: remove nodes that have been fully drained.
    ReleaseDrained,
    /// An injected network-latency overlay (region latency spike or
    /// partition) heals: drop the overlay with this token.
    EndNetworkOverlay { token: u64 },
}

/// The simulated cluster.
pub struct ClusterSim {
    params: SimParams,
    kind: CoordKind,
    queue: EventQueue<Event>,
    rng: DetRng,
    nodes: Vec<NodeSim>,
    granules: Vec<GranuleSim>,
    /// Granules owned per node slot: set from the block bounds in `new`,
    /// moved at the ownership flip in `handle_mig_worker`, never recounted.
    owned: Vec<u64>,
    /// Routing-tier cache granule → node index (stale entries fixed by
    /// redirects, as in §4.2).
    routes: Vec<u32>,
    clients: Vec<ClientSim>,
    active_clients: u32,
    backend: CoordBackend,
    /// The global SysLog (membership; real CAS state).
    syslog: SimLog,
    syslog_station: CpuStation,
    /// Per-virtual-member SysLog trackers (membership stress test).
    member_trackers: Vec<LsnTracker>,
    membership_latency_sum: Nanos,
    /// Membership stress cadence and per-member tick origins.
    membership_period: Nanos,
    membership_origins: Vec<Nanos>,
    /// First attempt time of each member's in-flight update (latency
    /// includes OCC retries — the Figure 15 degradation signal).
    membership_starts: Vec<Option<Nanos>>,
    /// Migration worker state: (queue, cursor, current blocked task).
    workers: Vec<(Vec<MigrationTask>, usize)>,
    /// Plans scheduled but not yet started (scale-out task lists are
    /// built when the plan fires; see [`PendingPlan`]).
    pending_plans: Vec<PendingPlan>,
    /// Flow-level client cohorts (cohort engine only; empty otherwise).
    cohorts: Vec<Cohort>,
    /// Whether this run batches clients into cohorts. Decided once at
    /// construction: `Cohort` runs below
    /// [`SimParams::cohort_min_clients`] take the exact per-client path
    /// and are bit-identical to `Exact`.
    cohort_active: bool,
    /// Committed user transactions in the recent past: (commit time,
    /// client-perceived latency, client region, weight). The exact
    /// engine records weight 1 per commit; the cohort engine records
    /// one weighted entry per sampled walk. Pruned to the observation
    /// window.
    recent_commits: std::collections::VecDeque<(Nanos, Nanos, u16, u32)>,
    /// Whether windowed p99 comes from the log-bucketed histogram
    /// rather than the exact tuple window. Decided once at
    /// construction: `latency_hist` runs below
    /// [`SimParams::hist_min_clients`] keep the exact window and are
    /// bit-identical to histogram-off runs (the same parity discipline
    /// as `cohort_active`).
    hist_active: bool,
    /// The histogram-backed commit-latency window (empty stub unless
    /// `hist_active`).
    lat_window: LatencyWindow,
    /// The run's slowest commits with their blame breakdowns.
    exemplars: TailExemplars,
    /// Committed user transactions per client region (the §6.5 per-region
    /// throughput split).
    region_commits: Vec<u64>,
    /// Live-node-nanoseconds accrued per region (the per-region DB Cost
    /// split; mirrors the global `CostModel` accounting).
    region_node_ns: Vec<f64>,
    /// Last time `region_node_ns` was brought current.
    region_accrued_at: Nanos,
    /// Accesses per granule since the last observation (heat sampling
    /// for the rebalance planner): exact counters, or a deterministic
    /// count-min sketch when [`SimParams::heat_sketch`] is on and the
    /// granule table is large enough.
    heat: HeatTracker,
    /// Nodes being drained for scale-in.
    draining: Vec<u32>,
    /// Active network overlays from injected region faults:
    /// `(token, region, extra one-way latency, cross_region_only)`.
    /// Empty in every non-fuzzed run, so `one_way` costs one `is_empty`
    /// check and existing timestamp streams stay bit-identical.
    net_overlays: Vec<(u64, u16, Nanos, bool)>,
    /// Monotonic token source for overlay heal events.
    overlay_seq: u64,
    /// One-shot extra provisioning lead consumed by the next scale-out
    /// order (injected [`jitter_provision_lead`](Self::jitter_provision_lead)).
    lead_extra_once: Nanos,
    /// Granules initially owned by each region's nodes (geo deployments
    /// keep clients local: "each client accessing only local compute
    /// nodes", §6.5 — and migrations stay within a region).
    region_granules: Vec<Vec<u64>>,
    /// Measurement state.
    pub metrics: RunMetrics,
    /// The §6.1.5 cost model (DB Cost + Meta Cost accrual).
    pub cost: CostModel,
    /// Cumulative cost over time (Figure 14b).
    pub cost_series: TimeSeries,
    /// Virtual-time tracer (enabled by `MARLIN_TRACE`, or explicitly).
    tracer: Tracer,
    /// Wall-time self-profiler (enabled by `MARLIN_BENCH_JSON`, or
    /// explicitly). Its numbers measure the host and are therefore kept
    /// out of the deterministic report surface unless requested.
    profiler: Profiler,
    /// End of simulated time.
    horizon: Nanos,
}

/// Which workload the clients run.
#[derive(Clone, Debug)]
pub enum Workload {
    /// YCSB over `granules` granules (64 tuples each). `zipfian:
    /// Some(theta)` skews the anchor-granule distribution (hot granules at
    /// the low ids); `None` is the paper's uniform access.
    Ycsb {
        /// Number of granules the table spans.
        granules: u64,
        /// Zipfian skew θ of the anchor-granule distribution, if any.
        zipfian: Option<f64>,
    },
    /// TPC-C with one warehouse per granule.
    Tpcc {
        /// Number of warehouses (= granules).
        warehouses: u64,
    },
}

impl Workload {
    /// Uniform YCSB over `granules` granules (the paper's default).
    #[must_use]
    pub fn ycsb(granules: u64) -> Self {
        Workload::Ycsb {
            granules,
            zipfian: None,
        }
    }

    /// Zipfian-skewed YCSB (hot granules concentrated at the low ids).
    #[must_use]
    pub fn ycsb_zipfian(granules: u64, theta: f64) -> Self {
        Workload::Ycsb {
            granules,
            zipfian: Some(theta),
        }
    }

    /// TPC-C with one warehouse per granule.
    #[must_use]
    pub fn tpcc(warehouses: u64) -> Self {
        Workload::Tpcc { warehouses }
    }

    /// Number of granules the workload spans.
    #[must_use]
    pub fn granule_count(&self) -> u64 {
        match self {
            Workload::Ycsb { granules, .. } => *granules,
            Workload::Tpcc { warehouses } => *warehouses,
        }
    }
}

impl ClusterSim {
    /// Build a cluster of `initial_nodes` nodes with the given workload,
    /// client count, and coordination backend. Granules start contiguously
    /// assigned (block partitioning) and warm.
    #[must_use]
    pub fn new(
        params: SimParams,
        kind: CoordKind,
        workload: &Workload,
        initial_nodes: u32,
        clients: u32,
        horizon: Nanos,
    ) -> Self {
        let rng = DetRng::seed(params.seed);
        let granule_count = workload.granule_count();
        let regions = params.regions.regions() as u16;

        // Nodes: spread across regions round-robin (geo scenarios place
        // equal node counts per region, §6.5).
        let nodes: Vec<NodeSim> = (0..initial_nodes)
            .map(|i| NodeSim {
                region: RegionId(i as u16 % regions),
                cpu: NodeCpu::new(params.cpu_model, params.cpu_workers),
                glog: SimLog::default(),
                tracker: LsnTracker::new(),
                append_station: CpuStation::new(1),
                alive: true,
            })
            .collect();

        // Granules: contiguous blocks per node, all warm.
        let granules: Vec<GranuleSim> = (0..granule_count)
            .map(|g| {
                let owner =
                    (u128::from(g) * u128::from(initial_nodes) / u128::from(granule_count)) as u32;
                GranuleSim {
                    owner,
                    migrating: false,
                    busy_until: 0,
                    cold_left: 0,
                }
            })
            .collect();
        let routes = granules.iter().map(|g| g.owner).collect();
        let mut region_granules: Vec<Vec<u64>> = vec![Vec::new(); regions as usize];
        for (g, gran) in granules.iter().enumerate() {
            let r = nodes[gran.owner as usize].region.0 as usize;
            region_granules[r].push(g as u64);
        }
        // Blocks are contiguous: a node owns from its block's start to the next one's.
        let start = |n: usize| granules.partition_point(|g| (g.owner as usize) < n) as u64;
        let owned = (0..nodes.len()).map(|n| start(n + 1) - start(n)).collect();

        // Engine selection happens once, here: a `Cohort` run below the
        // activation threshold takes the exact per-client path and is
        // bit-identical to `Exact` (the parity pin the §6 presets and
        // the fuzz digest oracle rely on).
        let cohort_active =
            params.client_engine == ClientEngine::Cohort && clients >= params.cohort_min_clients;
        // Same once-at-construction discipline for the latency
        // histogram: below the threshold the exact tuple window runs
        // and decision logs are bit-identical to histogram-off runs.
        let hist_active = params.latency_hist && clients >= params.hist_min_clients;

        let make_gen = |stream: DetRng| match workload {
            Workload::Ycsb { granules, zipfian } => ClientGen::Ycsb(YcsbGenerator::new(
                YcsbConfig {
                    zipfian: *zipfian,
                    ..YcsbConfig::paper_default(YcsbConfig::paper_layout(
                        marlin_common::TableId(0),
                        *granules,
                    ))
                },
                stream,
            )),
            Workload::Tpcc { warehouses } => ClientGen::Tpcc(TpccGenerator::new(
                TpccConfig::paper_default(*warehouses),
                stream,
            )),
        };

        // Clients: one generator stream each, distributed over regions —
        // unless the cohort engine aggregates them, in which case no
        // per-client state is materialized at all.
        let client_sims: Vec<ClientSim> = if cohort_active {
            Vec::new()
        } else {
            (0..clients)
                .map(|c| ClientSim {
                    region: RegionId(c as u16 % regions),
                    gen: make_gen(rng.fork(1000 + u64::from(c))),
                    strikes: 0,
                    active: true,
                    attempt_started: None,
                    attempt_blame: Blame::default(),
                })
                .collect()
        };
        // Cohorts: one per region, sized by the same round-robin deal
        // the exact engine uses (`client % regions`), with generator
        // streams forked off a dedicated label.
        let cohorts: Vec<Cohort> = if cohort_active {
            let base = rng.fork(FORK_COHORT);
            (0..regions)
                .map(|r| Cohort {
                    region: RegionId(r),
                    members: interleaved_share(clients, u32::from(regions), u32::from(r)),
                    active: interleaved_share(clients, u32::from(regions), u32::from(r)),
                    gen: make_gen(base.fork(u64::from(r))),
                    carry: 0.0,
                })
                .collect()
        } else {
            Vec::new()
        };

        let backend = match kind {
            CoordKind::Marlin => CoordBackend::Marlin,
            CoordKind::ZkSmall | CoordKind::ZkLarge => {
                let mut svc = ZkService::new(kind.zk_profile().expect("zk profile"));
                // Pre-install ownership metadata (unmetered: the paper
                // fully warms up before measuring, §6.1.4).
                for (g, gran) in granules.iter().enumerate() {
                    svc.preload(&CoordRequest::InstallOwner {
                        granule: GranuleId(g as u64),
                        owner: NodeId(gran.owner),
                    });
                }
                CoordBackend::Zk(svc)
            }
            CoordKind::Fdb => {
                let mut svc = FdbService::new(kind.fdb_profile().expect("fdb profile"));
                for (g, gran) in granules.iter().enumerate() {
                    svc.preload(&CoordRequest::InstallOwner {
                        granule: GranuleId(g as u64),
                        owner: NodeId(gran.owner),
                    });
                }
                CoordBackend::Fdb(svc)
            }
        };
        let meta_hourly = match &backend {
            CoordBackend::Marlin => 0.0,
            CoordBackend::Zk(s) => s.hourly_rate(),
            CoordBackend::Fdb(s) => s.hourly_rate(),
        };

        // Heat-sketch seeding uses a *pure* fork: it consumes nothing
        // from the main stream, so every exact-path RNG trajectory is
        // unchanged whether or not the sketch is on.
        let mut sketch_rng = rng.fork(FORK_SKETCH);
        let heat = HeatTracker::new(
            granule_count as usize,
            params.heat_sketch,
            params.sketch_min_granules,
            &mut sketch_rng,
        );

        let mut sim = ClusterSim {
            cost: CostModel::new(params.node_hourly, meta_hourly, initial_nodes),
            params,
            kind,
            queue: EventQueue::new(),
            rng,
            nodes,
            granules,
            owned,
            routes,
            clients: client_sims,
            active_clients: clients,
            backend,
            syslog: SimLog::default(),
            syslog_station: CpuStation::new(1),
            member_trackers: Vec::new(),
            membership_latency_sum: 0,
            membership_period: SECOND,
            membership_origins: Vec::new(),
            membership_starts: Vec::new(),
            workers: Vec::new(),
            pending_plans: Vec::new(),
            cohorts,
            cohort_active,
            recent_commits: std::collections::VecDeque::new(),
            hist_active,
            lat_window: LatencyWindow::new(if hist_active { regions as usize } else { 0 }),
            exemplars: TailExemplars::default(),
            region_commits: vec![0; regions as usize],
            region_node_ns: vec![0.0; regions as usize],
            region_accrued_at: 0,
            heat,
            draining: Vec::new(),
            net_overlays: Vec::new(),
            overlay_seq: 0,
            lead_extra_once: 0,
            region_granules,
            metrics: RunMetrics::new(),
            cost_series: TimeSeries::new(),
            tracer: Tracer::from_env(),
            profiler: Profiler::from_env(),
            horizon,
        };
        // Kick off the client loops (staggered within the first 100 ms so
        // the closed loops don't phase-lock) and cost sampling. The
        // cohort engine instead starts one step loop per cohort, phased
        // across the step so region steps don't all land on one event.
        if sim.cohort_active {
            for r in 0..sim.cohorts.len() as u32 {
                let phase = Self::COHORT_STEP * u64::from(r + 1) / sim.cohorts.len().max(1) as u64;
                sim.queue
                    .schedule(phase, ActorId(0), Event::CohortStep { cohort: r });
            }
        } else {
            for c in 0..clients {
                let jitter = sim.rng.range(0, 100 * 1_000_000);
                sim.queue
                    .schedule(jitter, ActorId(0), Event::ClientTxn { client: c });
            }
        }
        sim.queue.schedule(SECOND, ActorId(0), Event::CostTick);
        sim.metrics.node_count.push(0, f64::from(initial_nodes));
        sim
    }

    /// Coordination backend name.
    #[must_use]
    pub fn kind(&self) -> CoordKind {
        self.kind
    }

    /// Which CPU congestion model this run's nodes use.
    #[must_use]
    pub fn cpu_model(&self) -> CpuModel {
        self.params.cpu_model
    }

    /// Which client engine this run was configured with.
    #[must_use]
    pub fn client_engine(&self) -> ClientEngine {
        self.params.client_engine
    }

    /// Whether clients actually run as flow-level cohorts: `Cohort` at
    /// or above [`SimParams::cohort_min_clients`]. Below the threshold
    /// the run takes the exact per-client path (the parity pin).
    #[must_use]
    pub fn cohort_active(&self) -> bool {
        self.cohort_active
    }

    /// Whether granule heat is tracked by the count-min sketch rather
    /// than exact counters.
    #[must_use]
    pub fn heat_sketched(&self) -> bool {
        self.heat.is_sketched()
    }

    /// Granules the next observation's heat ranking will look at.
    #[must_use]
    pub fn heat_touched(&self) -> usize {
        self.heat.touched()
    }

    /// Whether windowed p99 latency is derived from the log-bucketed
    /// histogram: `latency_hist` at or above
    /// [`SimParams::hist_min_clients`]. Below the threshold the exact
    /// tuple window runs (the parity pin).
    #[must_use]
    pub fn hist_active(&self) -> bool {
        self.hist_active
    }

    /// The run's slowest commits with their blame breakdowns, slowest
    /// first.
    #[must_use]
    pub fn tail_exemplars(&self) -> &[TailExemplar] {
        self.exemplars.entries()
    }

    /// Currently active clients (exact per-client state or cohort
    /// aggregate, whichever engine runs).
    #[must_use]
    pub fn active_clients(&self) -> u32 {
        self.active_clients
    }

    /// Live node count.
    #[must_use]
    pub fn live_nodes(&self) -> u32 {
        self.nodes.iter().filter(|n| n.alive).count() as u32
    }

    /// Indices of the live nodes.
    #[must_use]
    pub fn live_node_ids(&self) -> Vec<u32> {
        (0..self.nodes.len() as u32)
            .filter(|&i| self.nodes[i as usize].alive)
            .collect()
    }

    /// Current granule owners (for assertions).
    #[must_use]
    pub fn owners(&self) -> Vec<u32> {
        self.granules.iter().map(|g| g.owner).collect()
    }

    /// Live node indices with the region each is placed in.
    #[must_use]
    pub fn live_nodes_by_region(&self) -> Vec<(u32, RegionId)> {
        (0..self.nodes.len() as u32)
            .filter(|&i| self.nodes[i as usize].alive)
            .map(|i| (i, self.nodes[i as usize].region))
            .collect()
    }

    /// Granule ids homed in each region (the §6.5 client-locality sets).
    #[must_use]
    pub fn region_granules(&self) -> &[Vec<u64>] {
        &self.region_granules
    }

    /// Committed user transactions attributed to each client region.
    #[must_use]
    pub fn region_commits(&self) -> &[u64] {
        &self.region_commits
    }

    /// DB Cost split per region, from the per-region node-time accrual.
    #[must_use]
    pub fn region_db_cost(&self) -> Vec<f64> {
        self.region_node_ns
            .iter()
            .map(|ns| ns / (3600.0 * SECOND as f64) * self.params.node_hourly)
            .collect()
    }

    /// The coordination-op counters accumulated so far (they live in
    /// [`RunMetrics`] with the rest of the run instruments).
    #[must_use]
    pub fn coordination(&self) -> CoordOps {
        self.metrics.coord
    }

    /// The coordination-op counters with the accrued Meta Cost dollars
    /// attributed across them (sums back to `cost.meta_cost()`; exactly
    /// 0 for Marlin).
    #[must_use]
    pub fn coordination_breakdown(&self) -> CoordBreakdown {
        self.cost.attribute_meta(self.metrics.coord)
    }

    /// Record a fault-injection marker in the trace (the runner calls
    /// this when the driver injects a crash).
    pub fn trace_fault(&mut self, at: Nanos, node: u32) {
        if self.tracer.is_enabled() {
            self.tracer
                .instant_args("fault", "crash", at, [("node", i64::from(node)), ("", 0)]);
        }
    }

    /// One-way penalty a hop pays when sent over a partitioned link: long
    /// enough that cross-region coordination visibly stalls, short enough
    /// that clients keep retrying and the run completes.
    pub const PARTITION_ONE_WAY: Nanos = 5 * SECOND;

    /// Inject a network-latency overlay on `region` at `now`, healing at
    /// the absolute time `until`: every affected one-way hop pays `extra`
    /// additional latency. With `cross_only` the overlay hits only
    /// cross-region hops (a partition); otherwise it hits every hop
    /// touching the region (a latency spike, meaningful even in
    /// single-region runs).
    ///
    /// The overlay is pure arithmetic — it draws no randomness and costs
    /// nothing while no overlay is active, so runs that never inject one
    /// keep bit-identical event streams.
    pub fn inject_latency_overlay(
        &mut self,
        now: Nanos,
        region: u16,
        extra: Nanos,
        cross_only: bool,
        until: Nanos,
    ) {
        let token = self.overlay_seq;
        self.overlay_seq += 1;
        self.net_overlays.push((token, region, extra, cross_only));
        self.queue.schedule_at(
            until.max(now),
            ActorId(0),
            Event::EndNetworkOverlay { token },
        );
        if self.tracer.is_enabled() {
            let kind = if cross_only {
                "region_partition"
            } else {
                "latency_spike"
            };
            self.tracer.instant_args(
                "fault",
                kind,
                now,
                [
                    ("region", i64::from(region)),
                    ("extra_ms", (extra / 1_000_000) as i64),
                ],
            );
        }
    }

    /// Add a one-shot `extra` to the provisioning lead of the *next*
    /// scale-out order — the injected "cloud control plane is slow today"
    /// fault. Consumed by the next `schedule_scale_out_in`; zero effect
    /// on runs that never inject it.
    pub fn jitter_provision_lead(&mut self, now: Nanos, extra: Nanos) {
        self.lead_extra_once += extra;
        if self.tracer.is_enabled() {
            self.tracer.instant_args(
                "fault",
                "lead_jitter",
                now,
                [("extra_ms", (extra / 1_000_000) as i64), ("", 0)],
            );
        }
    }

    /// The extra one-way latency active overlays impose on an `a → b` hop.
    fn overlay_penalty(&self, a: RegionId, b: RegionId) -> Nanos {
        if self.net_overlays.is_empty() {
            return 0;
        }
        let mut extra = 0;
        for &(_, region, pen, cross_only) in &self.net_overlays {
            let touches = a.0 == region || b.0 == region;
            if touches && (!cross_only || a != b) {
                extra += pen;
            }
        }
        extra
    }

    /// Turn on the virtual-time tracer with room for `capacity` events
    /// (tests enable tracing explicitly instead of mutating the
    /// process-wide `MARLIN_TRACE` environment).
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.tracer = Tracer::enabled(capacity);
    }

    /// Turn on the wall-time self-profiler explicitly.
    pub fn enable_profiling(&mut self) {
        self.profiler = Profiler::enabled();
    }

    /// The tracer (export via [`Tracer::to_chrome_json`]).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Is either telemetry instrument (tracer/profiler) live?
    #[must_use]
    pub fn telemetry_active(&self) -> bool {
        self.tracer.is_enabled() || self.profiler.is_enabled()
    }

    /// The profiler's numbers so far.
    #[must_use]
    pub fn profile_summary(&self) -> ProfileSummary {
        self.profiler.summary()
    }

    /// What `owned` must equal: the full recount, the debug oracle.
    fn recount_owned(&self) -> Vec<u64> {
        let mut owned = vec![0u64; self.nodes.len()];
        for g in &self.granules {
            owned[g.owner as usize] += 1;
        }
        owned
    }

    /// Bring the per-region node-time accrual current. Must run *before*
    /// any `alive` flag flips, mirroring `CostModel::advance`.
    fn accrue_region_time(&mut self, now: Nanos) {
        let dt = now.saturating_sub(self.region_accrued_at);
        if dt > 0 {
            for n in &self.nodes {
                if n.alive {
                    self.region_node_ns[n.region.0 as usize] += dt as f64;
                }
            }
            self.region_accrued_at = now;
        }
    }

    // ---------------------------------------------------------------------
    // autoscaler hooks (observe / actuate)

    /// How many of the hottest granules an observation samples for the
    /// rebalance planner.
    const OBSERVED_HOT_GRANULES: usize = 64;

    /// Upper bound on the commit-latency window retained by the commit
    /// path (observation windows larger than this would under-count).
    const MAX_OBSERVE_WINDOW: Nanos = 60 * SECOND;

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
                            && !self.granules[g].migrating
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

    /// Schedule a change of the active client count (dynamic workloads).
    pub fn schedule_client_count(&mut self, at: Nanos, count: u32) {
        self.queue
            .schedule_at(at, ActorId(0), Event::SetClients { count });
    }

    /// Schedule a change of one region's active client count (per-region
    /// load traces; clients are interleaved over regions, so region `r`'s
    /// `k`-th client is client `r + k·R`).
    pub fn schedule_region_client_count(&mut self, at: Nanos, region: u16, count: u32) {
        self.queue
            .schedule_at(at, ActorId(0), Event::SetRegionClients { region, count });
    }

    /// Apply a region's client count immediately (the t=0 step of a
    /// per-region trace, before any event has run).
    pub fn set_region_clients_now(&mut self, region: u16, count: u32) {
        self.apply_region_clients(region, count);
    }

    fn apply_region_clients(&mut self, region: u16, count: u32) {
        if self.cohort_active {
            if let Some(cohort) = self.cohorts.iter_mut().find(|c| c.region.0 == region) {
                cohort.active = count.min(cohort.members);
            }
            self.active_clients = self.cohorts.iter().map(|c| c.active).sum();
            return;
        }
        let regions = self.params.regions.regions() as u32;
        for (i, c) in self.clients.iter_mut().enumerate() {
            if c.region.0 != region {
                continue;
            }
            let index_in_region = i as u32 / regions;
            let was = c.active;
            c.active = index_in_region < count;
            if !was && c.active {
                self.queue
                    .schedule(0, ActorId(0), Event::ClientTxn { client: i as u32 });
            }
        }
        self.active_clients = self.clients.iter().filter(|c| c.active).count() as u32;
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
    fn balanced_tasks_onto(
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

    /// Configure the Figure 15 membership stress: `members` virtual nodes
    /// each committing one membership update every `period`.
    pub fn schedule_membership_stress(&mut self, members: u32, period: Nanos) {
        self.member_trackers = (0..members).map(|_| LsnTracker::new()).collect();
        self.membership_starts = vec![None; members as usize];
        self.membership_origins = Vec::with_capacity(members as usize);
        // Monitoring threads share the same period but are phase-spread
        // over a 500 ms window (process start skew); each keeps its phase
        // on subsequent ticks. The burst density — and with it the OCC
        // retry rate — therefore grows with the member count, which is
        // what produces the Figure 15 knee.
        let stagger = 500 * 1_000_000;
        for m in 0..members {
            let first = period + self.rng.range(0, stagger);
            self.membership_origins.push(first);
            self.queue
                .schedule_at(first, ActorId(0), Event::MembershipTick { member: m });
        }
        self.membership_period = period;
    }

    /// Run to the horizon.
    pub fn run(&mut self) {
        self.run_until(self.horizon);
        self.finish();
    }

    /// Process events up to virtual time `t` (clamped to the horizon),
    /// then stop so an external controller can observe and actuate. The
    /// closed-loop runners interleave `run_until` with
    /// [`ClusterSim::observe`] / [`ClusterSim::apply_action`].
    pub fn run_until(&mut self, t: Nanos) {
        let prof = self.profiler.start();
        let t = t.min(self.horizon);
        while self.queue.next_time().is_some_and(|next| next <= t) {
            let ev = self.queue.pop().expect("peeked event exists");
            self.dispatch(ev.at, ev.msg);
        }
        self.profiler.record_total(prof);
    }

    /// Final cost accounting once the horizon is reached.
    pub fn finish(&mut self) {
        let final_nodes = self.live_nodes();
        self.cost.advance(self.horizon, final_nodes);
        self.accrue_region_time(self.horizon);
        self.cost.sample_into(&mut self.cost_series, self.horizon);
    }

    // ---------------------------------------------------------------------
    // event handlers

    /// The profiler phase an event books under.
    fn phase_of(ev: &Event) -> &'static str {
        match ev {
            Event::ClientTxn { .. } => "event:client_txn",
            Event::CohortStep { .. } => "event:cohort_step",
            Event::MigWorker { .. } => "event:mig_worker",
            Event::WarmupDone { .. } => "event:warmup",
            Event::RouteUpdate { .. } => "event:route_update",
            Event::CostTick => "event:cost_tick",
            Event::MembershipTick { .. } => "event:membership",
            Event::SetClients { .. } | Event::SetRegionClients { .. } => "event:set_clients",
            Event::StartPlan { .. } => "event:start_plan",
            Event::StartDrain { .. } => "event:start_drain",
            Event::ReleaseDrained => "event:release_drained",
            Event::EndNetworkOverlay { .. } => "event:overlay",
        }
    }

    fn dispatch(&mut self, now: Nanos, ev: Event) {
        let prof = self.profiler.start();
        let phase = Self::phase_of(&ev);
        self.profiler.count_event();
        match ev {
            Event::ClientTxn { client } => self.handle_client_txn(now, client),
            Event::CohortStep { cohort } => self.handle_cohort_step(now, cohort),
            Event::MigWorker { worker } => self.handle_mig_worker(now, worker),
            Event::WarmupDone { granule } => {
                self.granules[granule as usize].cold_left = 0;
            }
            Event::RouteUpdate { granule } => {
                // The ownership broadcast reaching the routing tier — a
                // watch notification in service-backed deployments.
                self.metrics.coord.watch_notifications += 1;
                self.routes[granule as usize] = self.granules[granule as usize].owner;
            }
            Event::CostTick => {
                let live = self.live_nodes();
                self.cost.advance(now, live);
                self.accrue_region_time(now);
                self.cost.sample_into(&mut self.cost_series, now);
                self.metrics.node_count.push(now, f64::from(live));
                let depth = self.queue.pending() as u64;
                self.profiler.sample_depth(depth);
                self.queue.schedule(SECOND, ActorId(0), Event::CostTick);
            }
            Event::MembershipTick { member } => self.handle_membership(now, member),
            Event::SetClients { count } => {
                if self.cohort_active {
                    // The round-robin deal means the first `count`
                    // clients split over regions exactly as
                    // `interleaved_share` computes.
                    let capacity: u32 = self.cohorts.iter().map(|c| c.members).sum();
                    self.active_clients = count.min(capacity);
                    let groups = self.cohorts.len() as u32;
                    for (r, cohort) in self.cohorts.iter_mut().enumerate() {
                        cohort.active = interleaved_share(self.active_clients, groups, r as u32);
                    }
                } else {
                    self.active_clients = count.min(self.clients.len() as u32);
                    for (i, c) in self.clients.iter_mut().enumerate() {
                        let was = c.active;
                        c.active = (i as u32) < self.active_clients;
                        if !was && c.active {
                            self.queue.schedule(
                                0,
                                ActorId(0),
                                Event::ClientTxn { client: i as u32 },
                            );
                        }
                    }
                }
            }
            Event::SetRegionClients { region, count } => self.apply_region_clients(region, count),
            Event::StartPlan { plan_idx } => {
                let (plan, activate) = match std::mem::take(&mut self.pending_plans[plan_idx]) {
                    PendingPlan::Built { plan, activate } => (plan, activate),
                    // Scale-out: provisioning is complete — build the
                    // balanced task list against *current* ownership
                    // (the slots are still dead here, exactly as the
                    // order-time build saw them), then activate.
                    PendingPlan::ScaleOut {
                        slots,
                        threads_per,
                        region,
                        ordered_at,
                    } => {
                        // Order → provision → join: the lead the capacity
                        // order waited before the nodes could join.
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
                // This plan's nodes join the membership now (AddNodeTxn
                // cost). Other dead slots stay released — they may belong
                // to a different pending plan or to a finished drain.
                self.accrue_region_time(now);
                for slot in activate {
                    self.nodes[slot as usize].alive = true;
                }
                let live = self.live_nodes();
                self.cost.advance(now, live);
                self.metrics.node_count.push(now, f64::from(live));
                let base = self.workers.len() as u32;
                for (i, q) in plan.queues.into_iter().enumerate() {
                    self.workers.push((q, 0));
                    self.queue.schedule(
                        0,
                        ActorId(0),
                        Event::MigWorker {
                            worker: base + i as u32,
                        },
                    );
                }
            }
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
                let base = self.workers.len() as u32;
                for (i, q) in plan.queues.into_iter().enumerate() {
                    self.workers.push((q, 0));
                    self.queue.schedule(
                        0,
                        ActorId(0),
                        Event::MigWorker {
                            worker: base + i as u32,
                        },
                    );
                }
            }
            Event::ReleaseDrained => self.release_drained(now),
            Event::EndNetworkOverlay { token } => {
                self.net_overlays.retain(|&(t, ..)| t != token);
            }
        }
        self.profiler.record(phase, prof);
    }

    fn one_way(&mut self, a: RegionId, b: RegionId) -> Nanos {
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

    fn jittered(&mut self, base: Nanos) -> Nanos {
        let span = base / 5;
        if span == 0 {
            base
        } else {
            base - span / 2 + self.rng.range(0, span + 1)
        }
    }

    /// Storage append completion for node `n`'s log: half RTT out, station
    /// service, half RTT back. Returns `(done, service, sojourn)` so the
    /// caller can attribute the append's time: `done - at` is the full
    /// round trip (`storage_rtt + sojourn`), of which `service` is
    /// productive and `sojourn - service` is station queueing.
    fn storage_append_done(&mut self, n: usize, at: Nanos) -> (Nanos, Nanos, Nanos) {
        let service = self.jittered(self.params.append_service);
        let out = at + self.params.storage_rtt / 2;
        let sojourn = self.nodes[n].append_station.charge(out, service);
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

    fn handle_client_txn(&mut self, now: Nanos, client: u32) {
        let c = client as usize;
        if !self.clients[c].active {
            self.clients[c].attempt_started = None;
            self.clients[c].attempt_blame = Blame::default();
            return;
        }
        let started = *self.clients[c].attempt_started.get_or_insert(now);
        // Blame accrual for this attempt. Every virtual-time increment
        // below has a matching component add, so the components sum to
        // the attempt's duration exactly (asserted at commit).
        let mut blame = Blame::default();
        // Station queueing while ordered capacity is still provisioning
        // is the policy's lead showing up in the tail — reclassified
        // from `queue_wait` to `provision_lead` for the whole attempt.
        let lead_pending = self
            .pending_plans
            .iter()
            .any(|p| matches!(p, PendingPlan::ScaleOut { .. }));
        let template = self.clients[c].gen.next_txn();
        let client_region = self.clients[c].region;
        let (anchor_granule, touched) = self.granules_of(&template, client_region);
        let ag = anchor_granule as usize;

        // Routing (stale cache + redirect, §4.2).
        let route = self.routes[ag];
        let owner = self.granules[ag].owner;
        if route != owner {
            // Misroute: one round trip to learn the redirect, abort, retry.
            // Service-backed routers refresh ownership from the external
            // coordination service (a metered read); Marlin's redirect
            // comes from the node itself (§4.2) — no coordination op.
            if !matches!(self.backend, CoordBackend::Marlin) {
                self.metrics.coord.service_reads += 1;
            }
            let rtt = 2 * self.one_way(self.clients[c].region, self.nodes[route as usize].region);
            self.routes[ag] = owner;
            self.metrics.abort(now);
            let strikes = self.clients[c].strikes;
            self.clients[c].strikes = strikes.saturating_add(1);
            let backoff = self.backoff(strikes);
            let delay = rtt + backoff;
            // The wasted redirect round trip is migration fallout (the
            // routing tier lags the ownership move); the backoff is the
            // client's own retry throttle.
            self.clients[c].attempt_blame.migration_stall = self.clients[c]
                .attempt_blame
                .migration_stall
                .saturating_add(rtt);
            self.clients[c].attempt_blame.retry_backoff = self.clients[c]
                .attempt_blame
                .retry_backoff
                .saturating_add(backoff);
            self.queue
                .schedule(delay, ActorId(0), Event::ClientTxn { client });
            return;
        }
        // NO_WAIT against in-flight migrations on any touched granule.
        if touched.iter().any(|&g| self.granules[g as usize].migrating) {
            let rtt = 2 * self.one_way(self.clients[c].region, self.nodes[owner as usize].region);
            self.metrics.abort(now);
            let strikes = self.clients[c].strikes;
            self.clients[c].strikes = strikes.saturating_add(1);
            let backoff = self.backoff(strikes);
            let delay = rtt + backoff;
            self.clients[c].attempt_blame.migration_stall = self.clients[c]
                .attempt_blame
                .migration_stall
                .saturating_add(rtt);
            self.clients[c].attempt_blame.retry_backoff = self.clients[c]
                .attempt_blame
                .retry_backoff
                .saturating_add(backoff);
            self.queue
                .schedule(delay, ActorId(0), Event::ClientTxn { client });
            return;
        }

        // Execute the interactive request loop.
        let home = owner as usize;
        let home_region = self.nodes[home].region;
        let mut t = now;
        for op in &template.ops {
            let g = self.granule_of_key(&template, op.key, client_region) as usize;
            let serve_node = self.granules[g].owner as usize;
            t += self.hop(client_region, home_region, &mut blame);
            if serve_node != home {
                // Multi-site access (TPC-C remote warehouse): forwarded
                // through the home node to the participant.
                t += self.hop(home_region, self.nodes[serve_node].region, &mut blame);
            }
            let service = self.jittered(self.params.req_service);
            let sojourn = self.nodes[serve_node].cpu.charge(now, t, service);
            t += sojourn;
            blame.service = blame.service.saturating_add(service);
            let wait = sojourn.saturating_sub(service);
            if lead_pending {
                blame.provision_lead = blame.provision_lead.saturating_add(wait);
            } else {
                blame.queue_wait = blame.queue_wait.saturating_add(wait);
            }
            if self.granules[g].cold_left > 0 {
                // Cold cache: GetPage@LSN from the page store.
                let fetch = self.jittered(self.params.get_page_service);
                t += self.params.storage_rtt + fetch;
                blame.network = blame.network.saturating_add(self.params.storage_rtt);
                blame.service = blame.service.saturating_add(fetch);
                self.granules[g].cold_left -= 1;
            }
            if serve_node != home {
                t += self.hop(self.nodes[serve_node].region, home_region, &mut blame);
            }
            t += self.hop(home_region, client_region, &mut blame);
        }

        // Commit: group commit wait, then the conditional append on the
        // home node's GLog — a *real* CAS against real LSN state.
        let gc_wait = self.jittered(self.params.group_commit_wait);
        t += gc_wait;
        blame.network = blame.network.saturating_add(gc_wait);
        let participants: Vec<usize> = {
            let mut p: Vec<usize> = touched
                .iter()
                .map(|&g| self.granules[g as usize].owner as usize)
                .collect();
            p.sort_unstable();
            p.dedup();
            p
        };
        if participants.len() > 1 {
            // Two-phase commit across sites: one vote round trip.
            let vote = self.hop(home_region, self.nodes[participants[1]].region, &mut blame);
            t += 2 * vote;
            // `hop` attributed one leg; mirror the second.
            let overlay = self.overlay_penalty(home_region, self.nodes[participants[1]].region);
            blame.network = blame.network.saturating_add(vote - overlay);
            blame.network_overlay = blame.network_overlay.saturating_add(overlay);
        }
        let mut commit_done = t;
        // Service/sojourn split of the append on the critical path (the
        // slowest participant defines `commit_done`).
        let mut append_split: Option<(Nanos, Nanos)> = None;
        let mut cas_failed = false;
        for &p in &participants {
            self.metrics.coord.commit_cas_attempts += 1;
            if self.nodes[p].append_at_tracked_lsn(p).is_err() {
                self.metrics.coord.commit_cas_retries += 1;
                cas_failed = true;
            }
            let (done, service, sojourn) = self.storage_append_done(p, t);
            if done > commit_done {
                commit_done = done;
                append_split = Some((service, sojourn));
            }
        }
        if let Some((service, sojourn)) = append_split {
            blame.network = blame.network.saturating_add(self.params.storage_rtt);
            blame.service = blame.service.saturating_add(service);
            let wait = sojourn.saturating_sub(service);
            if lead_pending {
                blame.provision_lead = blame.provision_lead.saturating_add(wait);
            } else {
                blame.queue_wait = blame.queue_wait.saturating_add(wait);
            }
        }
        if cas_failed {
            // Cross-node modification detected at commit (Figure 7 race).
            self.metrics.abort(commit_done);
            let strikes = self.clients[c].strikes;
            self.clients[c].strikes = strikes.saturating_add(1);
            let backoff = self.backoff(strikes);
            let delay = (commit_done - now) + backoff;
            // The wasted attempt keeps its component split; only the
            // backoff is the retry's own cost.
            blame.retry_backoff = blame.retry_backoff.saturating_add(backoff);
            self.clients[c].attempt_blame.add(&blame);
            self.queue
                .schedule(delay, ActorId(0), Event::ClientTxn { client });
            return;
        }
        let t_end = commit_done + self.hop(home_region, client_region, &mut blame);
        for &g in &touched {
            let gran = &mut self.granules[g as usize];
            gran.busy_until = gran.busy_until.max(t_end);
            self.heat.record(g as usize, 1);
        }
        let latency = t_end - started;
        self.metrics.commit(t_end, latency);
        // Every time increment of this attempt has a matching component
        // add (the cross-attempt sum then matches the client-perceived
        // latency, since each aborted attempt contributed exactly its
        // retry delay).
        debug_assert_eq!(
            blame.total(),
            t_end - now,
            "attempt blame must sum to the attempt's duration"
        );
        let mut txn_blame = self.clients[c].attempt_blame;
        txn_blame.add(&blame);
        self.metrics.blame_n(&txn_blame, 1);
        self.exemplars.offer(TailExemplar {
            at: t_end,
            latency,
            granule: anchor_granule,
            node: owner,
            region: client_region.0,
            weight: 1,
            blame: txn_blame,
        });
        if self.hist_active {
            self.lat_window.record(t_end, latency, client_region.0, 1);
        } else {
            self.recent_commits
                .push_back((t_end, latency, client_region.0, 1));
            self.prune_recent_commits(t_end);
        }
        self.region_commits[client_region.0 as usize] += 1;
        self.clients[c].strikes = 0;
        self.clients[c].attempt_started = None;
        self.clients[c].attempt_blame = Blame::default();
        // Closed loop: next transaction immediately after the response.
        self.queue
            .schedule_at(t_end, ActorId(0), Event::ClientTxn { client });
    }

    /// Keep the commit window bounded here, not only in observe():
    /// scripted scenarios and the figure benches never observe, and a
    /// paper-scale run commits tens of millions of transactions.
    fn prune_recent_commits(&mut self, latest: Nanos) {
        let floor = latest.saturating_sub(Self::MAX_OBSERVE_WINDOW);
        while self
            .recent_commits
            .front()
            .is_some_and(|&(t, _, _, _)| t < floor)
        {
            self.recent_commits.pop_front();
        }
    }

    /// Cohort step cadence: each cohort advances its whole client batch
    /// once per 100 ms of virtual time.
    const COHORT_STEP: Nanos = 100 * 1_000_000;

    /// Representative transaction walks priced per cohort step. Each
    /// walk runs the exact per-client timeline (same stations, same
    /// logs); the batch's remaining transactions ride the walks as
    /// weights.
    const COHORT_SAMPLES: u32 = 8;

    /// Advance one cohort by a full step: price [`COHORT_SAMPLES`]
    /// representative walks, derive the step's transaction count from
    /// the closed-loop rate (`active clients × step / mean cycle`, with
    /// a fractional carry so the long-run rate is exact), then replay
    /// each walk's outcome with its share of that count — weighted
    /// metrics, weighted heat, and bulk offered-load deposits on the
    /// stations the walk visited.
    ///
    /// [`COHORT_SAMPLES`]: Self::COHORT_SAMPLES
    fn handle_cohort_step(&mut self, now: Nanos, cohort: u32) {
        self.queue
            .schedule(Self::COHORT_STEP, ActorId(0), Event::CohortStep { cohort });
        let i = cohort as usize;
        let active = self.cohorts[i].active;
        if active == 0 {
            self.cohorts[i].carry = 0.0;
            return;
        }
        let region = self.cohorts[i].region;

        let walks: Vec<CohortWalk> = (0..Self::COHORT_SAMPLES)
            .map(|_| self.cohort_walk(now, i, region))
            .collect();
        let mean_cycle =
            (walks.iter().map(|w| w.cycle(now) as f64).sum::<f64>() / walks.len() as f64).max(1.0);
        let offered =
            f64::from(active) * (Self::COHORT_STEP as f64 / mean_cycle) + self.cohorts[i].carry;
        let txns = offered.floor();
        self.cohorts[i].carry = offered - txns;
        let txns = txns as u64;
        let base = txns / u64::from(Self::COHORT_SAMPLES);
        let rem = (txns % u64::from(Self::COHORT_SAMPLES)) as usize;

        let mut latest_commit = 0;
        for (s, walk) in walks.iter().enumerate() {
            let w = base + u64::from(s < rem);
            if w == 0 {
                continue;
            }
            match walk {
                CohortWalk::Commit {
                    t_end,
                    touched,
                    participants,
                    node_service,
                    blame,
                    anchor,
                    home,
                } => {
                    let latency = t_end - now;
                    self.metrics.commit_n(*t_end, latency, w);
                    self.metrics.coord.commit_cas_attempts += w * participants.len() as u64;
                    self.metrics.blame_n(blame, w);
                    self.exemplars.offer(TailExemplar {
                        at: *t_end,
                        latency,
                        granule: *anchor,
                        node: *home,
                        region: region.0,
                        weight: w,
                        blame: *blame,
                    });
                    // Weight entries saturate at u32::MAX per sample —
                    // ~4 billion commits in one 100 ms step is beyond
                    // any modeled scale.
                    let w32 = u32::try_from(w).unwrap_or(u32::MAX);
                    if self.hist_active {
                        self.lat_window
                            .record(*t_end, latency, region.0, u64::from(w32));
                    } else {
                        self.recent_commits
                            .push_back((*t_end, latency, region.0, w32));
                    }
                    self.region_commits[region.0 as usize] += w;
                    for &g in touched {
                        let gran = &mut self.granules[g as usize];
                        gran.busy_until = gran.busy_until.max(*t_end);
                        self.heat.record(g as usize, w32);
                    }
                    if w > 1 {
                        for &(n, svc) in node_service {
                            self.nodes[n].cpu.offer(now, svc.saturating_mul(w - 1));
                        }
                        let append = self.params.append_service;
                        for &p in participants {
                            self.nodes[p]
                                .append_station
                                .offer(now, append.saturating_mul(w - 1));
                        }
                    }
                    latest_commit = latest_commit.max(*t_end);
                }
                CohortWalk::Abort {
                    at,
                    coord_read,
                    cas_retry,
                    node_service,
                    ..
                } => {
                    self.metrics.abort_n(*at, w);
                    if *coord_read {
                        self.metrics.coord.service_reads += w;
                    }
                    if *cas_retry {
                        self.metrics.coord.commit_cas_attempts += w;
                        self.metrics.coord.commit_cas_retries += w;
                    }
                    if w > 1 {
                        for &(n, svc) in node_service {
                            self.nodes[n].cpu.offer(now, svc.saturating_mul(w - 1));
                        }
                    }
                }
            }
        }
        if latest_commit > 0 && !self.hist_active {
            self.prune_recent_commits(latest_commit);
        }
    }

    /// Price one representative transaction for a cohort: the exact
    /// per-client timeline (routing, NO_WAIT, per-op hops and CPU
    /// charges, group commit, real GLog CAS appends) without per-client
    /// state. Strikes don't exist at cohort granularity, so retry
    /// backoff uses the first-strike floor.
    fn cohort_walk(&mut self, now: Nanos, cohort: usize, region: RegionId) -> CohortWalk {
        let template = self.cohorts[cohort].gen.next_txn();
        let (anchor_granule, touched) = self.granules_of(&template, region);
        let ag = anchor_granule as usize;

        let route = self.routes[ag];
        let owner = self.granules[ag].owner;
        if route != owner {
            let rtt = 2 * self.one_way(region, self.nodes[route as usize].region);
            self.routes[ag] = owner;
            let delay = rtt + self.backoff(0);
            return CohortWalk::Abort {
                at: now,
                coord_read: !matches!(self.backend, CoordBackend::Marlin),
                cas_retry: false,
                cycle: delay,
                node_service: Vec::new(),
            };
        }
        if touched.iter().any(|&g| self.granules[g as usize].migrating) {
            let rtt = 2 * self.one_way(region, self.nodes[owner as usize].region);
            let delay = rtt + self.backoff(0);
            return CohortWalk::Abort {
                at: now,
                coord_read: false,
                cas_retry: false,
                cycle: delay,
                node_service: Vec::new(),
            };
        }

        let home = owner as usize;
        let home_region = self.nodes[home].region;
        let mut t = now;
        let mut node_service: Vec<(usize, Nanos)> = Vec::with_capacity(template.ops.len());
        // Same blame accrual as the exact path (each weighted copy of
        // the walk replays this decomposition).
        let mut blame = Blame::default();
        let lead_pending = self
            .pending_plans
            .iter()
            .any(|p| matches!(p, PendingPlan::ScaleOut { .. }));
        for op in &template.ops {
            let g = self.granule_of_key(&template, op.key, region) as usize;
            let serve_node = self.granules[g].owner as usize;
            t += self.hop(region, home_region, &mut blame);
            if serve_node != home {
                t += self.hop(home_region, self.nodes[serve_node].region, &mut blame);
            }
            let service = self.jittered(self.params.req_service);
            node_service.push((serve_node, service));
            let sojourn = self.nodes[serve_node].cpu.charge(now, t, service);
            t += sojourn;
            blame.service = blame.service.saturating_add(service);
            let wait = sojourn.saturating_sub(service);
            if lead_pending {
                blame.provision_lead = blame.provision_lead.saturating_add(wait);
            } else {
                blame.queue_wait = blame.queue_wait.saturating_add(wait);
            }
            if self.granules[g].cold_left > 0 {
                let fetch = self.jittered(self.params.get_page_service);
                t += self.params.storage_rtt + fetch;
                blame.network = blame.network.saturating_add(self.params.storage_rtt);
                blame.service = blame.service.saturating_add(fetch);
                self.granules[g].cold_left -= 1;
            }
            if serve_node != home {
                t += self.hop(self.nodes[serve_node].region, home_region, &mut blame);
            }
            t += self.hop(home_region, region, &mut blame);
        }

        let gc_wait = self.jittered(self.params.group_commit_wait);
        t += gc_wait;
        blame.network = blame.network.saturating_add(gc_wait);
        let participants: Vec<usize> = {
            let mut p: Vec<usize> = touched
                .iter()
                .map(|&g| self.granules[g as usize].owner as usize)
                .collect();
            p.sort_unstable();
            p.dedup();
            p
        };
        if participants.len() > 1 {
            let vote = self.hop(home_region, self.nodes[participants[1]].region, &mut blame);
            t += 2 * vote;
            let overlay = self.overlay_penalty(home_region, self.nodes[participants[1]].region);
            blame.network = blame.network.saturating_add(vote - overlay);
            blame.network_overlay = blame.network_overlay.saturating_add(overlay);
        }
        let mut commit_done = t;
        let mut append_split: Option<(Nanos, Nanos)> = None;
        let mut cas_failed = false;
        for &p in &participants {
            cas_failed |= self.nodes[p].append_at_tracked_lsn(p).is_err();
            let (done, service, sojourn) = self.storage_append_done(p, t);
            if done > commit_done {
                commit_done = done;
                append_split = Some((service, sojourn));
            }
        }
        if cas_failed {
            let delay = (commit_done - now) + self.backoff(0);
            return CohortWalk::Abort {
                at: commit_done,
                coord_read: false,
                cas_retry: true,
                cycle: delay,
                node_service,
            };
        }
        if let Some((service, sojourn)) = append_split {
            blame.network = blame.network.saturating_add(self.params.storage_rtt);
            blame.service = blame.service.saturating_add(service);
            let wait = sojourn.saturating_sub(service);
            if lead_pending {
                blame.provision_lead = blame.provision_lead.saturating_add(wait);
            } else {
                blame.queue_wait = blame.queue_wait.saturating_add(wait);
            }
        }
        let t_end = commit_done + self.hop(home_region, region, &mut blame);
        debug_assert_eq!(
            blame.total(),
            t_end - now,
            "walk blame must sum to the walk's duration"
        );
        CohortWalk::Commit {
            t_end,
            touched,
            participants,
            node_service,
            blame,
            anchor: anchor_granule,
            home: owner,
        }
    }

    /// The anchor granule and the sorted, distinct granules `template`
    /// touches when issued from `region`.
    fn granules_of(&self, template: &TxnTemplate, region: RegionId) -> (u64, Vec<u64>) {
        let anchor = self.granule_of_key(template, template.anchor, region);
        let mut touched: Vec<u64> = template
            .ops
            .iter()
            .map(|op| self.granule_of_key(template, op.key, region))
            .collect();
        touched.push(anchor);
        touched.sort_unstable();
        touched.dedup();
        (anchor, touched)
    }

    /// The granule holding `key` for a client in `region`.
    ///
    /// Geo deployment: clients only touch data homed in their own region
    /// (§6.5), so the key's granule is folded into the region's set. A
    /// region with no initial nodes owns no granules — its clients fall
    /// back to the global granule space rather than folding into an
    /// empty set (found by fuzzing: `g % 0` panicked).
    fn granule_of_key(&self, template: &TxnTemplate, key: u64, region: RegionId) -> u64 {
        let g = if template.kind == 0 {
            // YCSB: 64 keys per granule (64 KB granules of 1 KB tuples).
            (key / 64).min(self.granules.len() as u64 - 1)
        } else {
            // TPC-C: warehouse-major composite keys.
            TpccConfig::warehouse_of(key).min(self.granules.len() as u64 - 1)
        };
        if self.region_granules.len() <= 1 {
            return g;
        }
        match self.region_granules[region.0 as usize].as_slice() {
            [] => g,
            local => local[(g % local.len() as u64) as usize],
        }
    }

    fn handle_mig_worker(&mut self, now: Nanos, worker: u32) {
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

        // Data-effectiveness + NO_WAIT lock acquisition at the source:
        // one node-to-node round trip plus CPU on both sides.
        let src = task.src as usize;
        let dst = task.dst as usize;
        let src_region = self.nodes[src].region;
        let dst_region = self.nodes[dst].region;
        let mut t = now + 2 * self.one_way(dst_region, src_region);
        let svc = self.jittered(self.params.migration_service);
        t += self.nodes[src].cpu.charge(now, t, svc);
        let svc = self.jittered(self.params.migration_service);
        t += self.nodes[dst].cpu.charge(now, t, svc);

        // Data-effectiveness re-check: plans from different control ticks
        // may overlap (a rebalance planner can propose a granule that an
        // earlier, still-running plan is about to move). The MigrationTxn
        // protocol aborts such stale tasks at the source — skip them.
        if self.granules[g].migrating || self.granules[g].owner != task.src {
            self.workers[w].1 += 1;
            self.queue
                .schedule_at(t, ActorId(0), Event::MigWorker { worker });
            return;
        }
        // NO_WAIT: an active user transaction on the granule aborts us.
        if self.granules[g].busy_until > t {
            self.metrics.migration_retries += 1;
            let retry = self.granules[g].busy_until - t + self.rng.range(0, 2_000_000);
            self.queue
                .schedule_at(t + retry, ActorId(0), Event::MigWorker { worker });
            return;
        }
        // The granule lock is held from the effectiveness check through
        // the metadata commit — the window in which user transactions
        // NO_WAIT-abort against the migration (Figure 6 step 2/4).
        self.granules[g].migrating = true;

        // Metadata commit.
        let commit_done = match &mut self.backend {
            CoordBackend::Marlin => {
                // Two prepared Append@LSN CAS ops (src + dst GLogs). Both
                // succeed here — the granule lock serializes writers — but
                // they are coordination ops all the same.
                self.metrics.coord.migration_cas_attempts += 2;
                // MarlinCommit 2PC: prepared appends on both GLogs in
                // parallel (the vote request to src rides the RPC already
                // made); decisions are asynchronous (off the latency path).
                let d_src = {
                    self.nodes[src]
                        .append_at_tracked_lsn(src)
                        .expect("src GLog CAS: src is the sole writer under its lock");
                    // The VOTE-REQ/response legs to the source ride the
                    // network (Algorithm 2 line 10).
                    let vote_rtt = 2 * self.one_way(dst_region, src_region);
                    self.storage_append_done(src, t + vote_rtt / 2).0 + vote_rtt / 2
                };
                let d_dst = {
                    self.nodes[dst]
                        .append_at_tracked_lsn(dst)
                        .expect("dst GLog CAS: dst is the sole writer");
                    self.storage_append_done(dst, t).0
                };
                // Async decisions still consume storage bandwidth.
                let decide_at = d_src.max(d_dst);
                let n_src = self.nodes[src].glog.append();
                let n_dst = self.nodes[dst].glog.append();
                let _ = self.storage_append_done(src, decide_at);
                let _ = self.storage_append_done(dst, decide_at);
                self.nodes[src]
                    .tracker
                    .observe(LogId::GLog(NodeId(src as u32)), n_src);
                self.nodes[dst]
                    .tracker
                    .observe(LogId::GLog(NodeId(dst as u32)), n_dst);
                decide_at
            }
            CoordBackend::Zk(svc) => {
                self.metrics.coord.service_writes += 1;
                let req = CoordRequest::UpdateOwner {
                    granule: GranuleId(task.granule),
                    from: NodeId(task.src),
                    to: NodeId(task.dst),
                };
                // The coordination service lives in region 0.
                let svc_region = RegionId(0);
                let to_svc = self.params.regions.link(dst_region, svc_region).mean()
                    * u64::from(svc.client_round_trips(&req))
                    * 2;
                let completion = svc.submit(t + to_svc / 2, &req, &mut self.rng);
                debug_assert_eq!(completion.reply, CoordReply::Updated);
                completion.done_at + to_svc / 2
            }
            CoordBackend::Fdb(svc) => {
                self.metrics.coord.service_writes += 1;
                let req = CoordRequest::UpdateOwner {
                    granule: GranuleId(task.granule),
                    from: NodeId(task.src),
                    to: NodeId(task.dst),
                };
                let svc_region = RegionId(0);
                let to_svc = self.params.regions.link(dst_region, svc_region).mean()
                    * u64::from(svc.client_round_trips(&req))
                    * 2;
                let completion = svc.submit(t + to_svc / 2, &req, &mut self.rng);
                debug_assert_eq!(completion.reply, CoordReply::Updated);
                completion.done_at + to_svc / 2
            }
        };

        // Ownership flips; the granule is cold at the destination until
        // the Squall-style warm-up finishes (same strategy for all
        // systems, §6.1.2).
        self.granules[g].owner = task.dst;
        self.owned[src] -= 1;
        self.owned[dst] += 1;
        self.granules[g].migrating = false;
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

    fn release_drained(&mut self, now: Nanos) {
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

    fn handle_membership(&mut self, now: Nanos, member: u32) {
        // One membership update: Marlin CAS-appends to the SysLog with the
        // member's tracker (retrying through refreshes on conflicts);
        // baselines write through the service.
        let m = member as usize;
        let started = *self.membership_starts[m].get_or_insert(now);
        let done = match &mut self.backend {
            CoordBackend::Marlin => {
                let expected = self.member_trackers[m].get(LogId::SysLog);
                self.metrics.coord.membership_cas_attempts += 1;
                match self.syslog.conditional_append(expected) {
                    Ok(new_lsn) => {
                        self.member_trackers[m].observe(LogId::SysLog, new_lsn);
                        let svc = self.jittered(self.params.append_service);
                        let arrive = now + self.params.storage_rtt / 2;
                        let station_done = arrive + self.syslog_station.charge(arrive, svc);
                        Some(station_done + self.params.storage_rtt / 2)
                    }
                    Err(current) => {
                        // TryLog failure: refresh the MTable cache and
                        // retry after backoff (the OCC contention path of
                        // Figure 15).
                        self.member_trackers[m].observe(LogId::SysLog, current);
                        self.metrics.coord.membership_cas_retries += 1;
                        self.metrics.membership_retries += 1;
                        let retry = self.params.storage_rtt
                            + self.params.mtable_refresh
                            + self.rng.range(0, 4 * self.params.storage_rtt);
                        self.queue
                            .schedule(retry, ActorId(0), Event::MembershipTick { member });
                        None
                    }
                }
            }
            CoordBackend::Zk(svc) => {
                let req = if member.is_multiple_of(2) {
                    CoordRequest::AddNode {
                        node: NodeId(10_000 + member),
                    }
                } else {
                    CoordRequest::DeleteNode {
                        node: NodeId(10_000 + member),
                    }
                };
                self.metrics.coord.service_writes += 1;
                Some(svc.submit(now, &req, &mut self.rng).done_at + self.params.intra_rtt)
            }
            CoordBackend::Fdb(svc) => {
                let req = if member.is_multiple_of(2) {
                    CoordRequest::AddNode {
                        node: NodeId(10_000 + member),
                    }
                } else {
                    CoordRequest::DeleteNode {
                        node: NodeId(10_000 + member),
                    }
                };
                self.metrics.coord.service_writes += 1;
                Some(svc.submit(now, &req, &mut self.rng).done_at + 2 * self.params.intra_rtt)
            }
        };
        if let Some(done) = done {
            self.metrics.membership_commits += 1;
            self.membership_latency_sum += done.saturating_sub(started);
            self.membership_starts[m] = None;
            // Next update one period after this one *started*.
            let next = self.membership_tick_origin(member) + self.membership_period;
            self.set_membership_tick_origin(member, next);
            self.queue
                .schedule_at(next.max(done), ActorId(0), Event::MembershipTick { member });
        }
    }

    /// Mean latency of committed membership updates.
    #[must_use]
    pub fn membership_mean_latency(&self) -> f64 {
        if self.metrics.membership_commits == 0 {
            0.0
        } else {
            self.membership_latency_sum as f64 / self.metrics.membership_commits as f64
        }
    }

    // Membership tick bookkeeping (origins per member).
    fn membership_tick_origin(&mut self, member: u32) -> Nanos {
        while self.membership_origins.len() <= member as usize {
            let p = self.membership_period;
            self.membership_origins.push(p);
        }
        self.membership_origins[member as usize]
    }

    fn set_membership_tick_origin(&mut self, member: u32, at: Nanos) {
        self.membership_origins[member as usize] = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // -- CpuStation (analytic EMA) boundary behavior ------------------------

    #[test]
    fn rho_at_time_zero_on_an_idle_station_is_zero() {
        let s = CpuStation::new(4);
        assert_eq!(s.rho_at(0), 0.0);
        // Still zero arbitrarily far in the future: nothing to decay.
        assert_eq!(s.rho_at(3600 * SECOND), 0.0);
    }

    #[test]
    fn rho_at_decays_to_nothing_over_a_huge_gap() {
        let mut s = CpuStation::new(1);
        // Saturate the station hard at t=0.
        for _ in 0..100 {
            s.charge(0, 10 * 1_000_000);
        }
        let rho_now = s.rho_at(0);
        assert!(rho_now > 1.0, "station must read overloaded: {rho_now}");
        // One EMA time constant halves-ish; a huge gap extinguishes it.
        assert!(s.rho_at(SECOND) < rho_now);
        let after_gap = s.rho_at(1_000 * SECOND);
        assert!(
            after_gap < 1e-12,
            "load must fully decay over a huge gap: {after_gap}"
        );
    }

    #[test]
    fn rho_at_before_the_last_arrival_reads_the_undecayed_load() {
        let mut s = CpuStation::new(1);
        s.charge(SECOND, 100 * 1_000_000);
        // Observing at an earlier instant than the last charge must not
        // decay (and must not panic on the negative gap).
        assert_eq!(s.rho_at(0), s.rho_at(SECOND));
    }

    #[test]
    fn back_to_back_arrivals_accumulate_without_decay() {
        let mut s = CpuStation::new(1);
        let svc = 50 * 1_000_000; // 50 ms on a 0.5 s EMA
        s.charge(SECOND, svc);
        let one = s.rho_at(SECOND);
        s.charge(SECOND, svc);
        let two = s.rho_at(SECOND);
        assert!((two - 2.0 * one).abs() < 1e-12, "same-instant arrivals add");
        // Each charge contributes service/TAU worker units.
        assert!((one - svc as f64 / CPU_TAU).abs() < 1e-12);
    }

    #[test]
    fn charge_grows_with_congestion_and_is_clamped_at_saturation() {
        let mut s = CpuStation::new(1);
        let svc = 20 * 1_000_000;
        let idle = s.charge(0, svc);
        assert!(idle >= svc, "sojourn includes at least the service time");
        // Pile on work at the same instant: the congestion delay grows but
        // the rho clamp (0.98) caps it at 49x the service time.
        let mut last = idle;
        for _ in 0..200 {
            last = s.charge(0, svc);
        }
        assert!(last > idle);
        assert!(last <= svc + svc * 49 + 1, "analytic delay is clamped");
    }

    // -- PerRequestStation: exact sojourn times -----------------------------

    #[test]
    fn idle_station_serves_at_the_bare_service_time() {
        let mut s = PerRequestStation::new(2);
        assert_eq!(s.charge(0, 0, 100), 100);
        assert_eq!(s.queue_len_at(0), 0);
    }

    #[test]
    fn sojourn_times_are_strictly_latency_ordered_under_backlog() {
        // One worker, three same-instant arrivals: FIFO slots give each
        // request a strictly larger sojourn than the one before it — the
        // "strictly latency-ordered" property the analytic clamp cannot
        // produce.
        let mut s = PerRequestStation::new(1);
        let sojourns: Vec<Nanos> = (0..3).map(|_| s.charge(0, 0, 100)).collect();
        assert_eq!(sojourns, vec![100, 200, 300]);
        // All three are in the system at t=0; two of them queue.
        assert_eq!(s.in_system_at(0), 3);
        assert_eq!(s.queue_len_at(0), 2);
        assert!((s.rho_at(0) - 3.0).abs() < 1e-12);
        // Queue drains as slots complete.
        assert_eq!(s.queue_len_at(150), 1);
        assert_eq!(s.in_system_at(250), 1);
        assert_eq!(s.in_system_at(300), 0);
    }

    #[test]
    fn multi_worker_station_runs_requests_in_parallel() {
        let mut s = PerRequestStation::new(4);
        let sojourns: Vec<Nanos> = (0..4).map(|_| s.charge(0, 0, 100)).collect();
        assert_eq!(sojourns, vec![100; 4], "4 workers absorb 4 requests");
        assert_eq!(s.queue_len_at(0), 0);
        // The fifth waits for the first free worker.
        assert_eq!(s.charge(0, 0, 100), 200);
        assert_eq!(s.queue_len_at(50), 1);
    }

    #[test]
    fn early_arrivals_fill_gaps_before_far_future_bookings() {
        // The out-of-order offer pattern the flow-level simulator
        // produces: one event books CPU far in the future, a later event
        // offers work now. The early request must not serialize behind
        // the future booking (work conservation across interleaved
        // offers).
        let mut s = PerRequestStation::new(1);
        assert_eq!(s.charge(0, 1_000_000, 100), 100, "future booking");
        assert_eq!(s.charge(0, 0, 100), 100, "early arrival fills the gap");
        // A request too large for the remaining gap (100 µs before the
        // future booking) waits for that booking to clear instead.
        assert_eq!(s.charge(0, 900_000, 200_000), 100_100 + 200_000);
    }

    #[test]
    fn pruning_drops_only_bookings_wholly_in_the_past() {
        let mut s = PerRequestStation::new(1);
        s.charge(0, 0, 100);
        s.charge(0, 200, 100);
        // Advance the event clock past the first booking: it is pruned,
        // the live one is kept and still visible to queries.
        s.charge(150, 150, 10);
        assert_eq!(s.in_system_at(250), 1);
        assert_eq!(s.bookings(), 2, "dead booking pruned, live ones kept");
        // A booking ending exactly at the clock is dead too; the prefix
        // stops at the first one still running.
        s.charge(160, 400, 10);
        assert_eq!(s.bookings(), 2, "[150,160) pruned, [200,300) kept");
        assert_eq!(s.workers[0][0].end, 300);
    }

    /// Reference implementation: the historical `charge` — `retain` over
    /// every calendar, a scan from each calendar's front, insertion by
    /// start alone. It drives a second station through the same fields
    /// and also reports the worker and start it chose.
    fn reference_charge(
        s: &mut PerRequestStation,
        now: Nanos,
        at: Nanos,
        service: Nanos,
    ) -> (Nanos, usize, Nanos) {
        if now > s.pruned_at {
            for calendar in &mut s.workers {
                calendar.retain(|b| b.end > now);
            }
            s.pruned_at = now;
        }
        let mut best: Option<(Nanos, usize)> = None;
        for (w, calendar) in s.workers.iter().enumerate() {
            let mut candidate = at;
            for b in calendar {
                if b.start >= candidate.saturating_add(service) {
                    break;
                }
                if b.end > candidate {
                    candidate = b.end;
                }
            }
            if best.is_none_or(|(s, _)| candidate < s) {
                best = Some((candidate, w));
            }
        }
        let (start, w) = best.unwrap();
        let end = start + service;
        deposit(&mut s.wait_ring, at, start);
        *ring_slot(&mut s.offered_ring, at / BUCKET) += service;
        let calendar = &mut s.workers[w];
        let pos = calendar.partition_point(|b| b.start < start);
        calendar.insert(
            pos,
            Booking {
                arrival: at,
                start,
                end,
            },
        );
        (end - at, w, start)
    }

    /// Each worker's slots as `(start, end, arrival)`, sorted: the two
    /// implementations may order equal-start slots differently.
    fn slots(s: &PerRequestStation) -> Vec<Vec<(Nanos, Nanos, Nanos)>> {
        s.workers
            .iter()
            .map(|calendar| {
                let mut v: Vec<_> = calendar
                    .iter()
                    .map(|b| (b.start, b.end, b.arrival))
                    .collect();
                v.sort_unstable();
                v
            })
            .collect()
    }

    #[test]
    fn zero_length_slot_sharing_a_start_keeps_both_orders() {
        // `[5,5)` first, then `[5,9)` on the same worker: inserting by
        // start alone would put the longer slot in front and break the
        // end order the binary search relies on.
        let mut s = PerRequestStation::new(1);
        assert_eq!(s.charge(0, 5, 0), 0);
        assert_eq!(s.charge(0, 5, 4), 4);
        let ends: Vec<Nanos> = s.workers[0].iter().map(|b| b.end).collect();
        assert_eq!(ends, vec![5, 9]);
        // An arrival inside `[5,9)` must see it.
        assert_eq!(s.charge(0, 6, 1), 4);
        // A zero-length slot is an obstacle to what arrives before it,
        // not to what arrives at it.
        let mut s = PerRequestStation::new(1);
        s.charge(0, 6, 0);
        assert_eq!(s.charge(0, 4, 4), 6, "waits until 6, runs [6,10)");
        assert_eq!(s.charge(0, 10, 0), 0);
        assert_eq!(s.charge(0, 10, 3), 3);
    }

    #[test]
    fn indexed_charge_matches_the_linear_scan_reference() {
        // Random out-of-order offers on quantized times, so equal starts
        // and ends are common, one service in ten is zero-length, and
        // the event clock sometimes stands still. Load is ~80% of
        // capacity with arrivals spread 500 ms ahead of the clock, which
        // holds several hundred live bookings.
        const Q: Nanos = 100_000;
        for seed in 0..16u64 {
            let workers = 1 + (seed % 8) as usize;
            let mut rng = DetRng::seed(seed);
            let mut indexed = PerRequestStation::new(workers);
            let mut reference = PerRequestStation::new(workers);
            let (mut now, mut deepest) = (0, 0);
            for _ in 0..1_500 {
                now += rng.range(0, 101) * Q;
                for _ in 0..rng.range(1, 16) {
                    let at = now + rng.range(0, 5_000) * Q;
                    let service = if rng.chance(0.1) {
                        0
                    } else {
                        rng.range(1, 10 * workers as u64) * Q
                    };
                    let sojourn = indexed.charge(now, at, service);
                    let (ref_sojourn, w, start) =
                        reference_charge(&mut reference, now, at, service);
                    assert_eq!(
                        sojourn, ref_sojourn,
                        "seed {seed}: at {at}, service {service}"
                    );
                    assert!(
                        indexed.workers[w]
                            .iter()
                            .any(|b| (b.arrival, b.start, b.end) == (at, start, start + service)),
                        "seed {seed}: slot [{start}, +{service}) not on worker {w}"
                    );
                }
                assert_eq!(slots(&indexed), slots(&reference), "seed {seed} at {now}");
                for calendar in &indexed.workers {
                    assert!(calendar
                        .windows(2)
                        .all(|p| p[0].start <= p[1].start && p[0].end <= p[1].end));
                }
                for window in [BUCKET, SECOND, 4 * SECOND] {
                    assert_eq!(
                        indexed.rho_windowed(now, window).to_bits(),
                        reference.rho_windowed(now, window).to_bits()
                    );
                    assert_eq!(
                        indexed.queue_windowed(now, window).to_bits(),
                        reference.queue_windowed(now, window).to_bits()
                    );
                }
                deepest = deepest.max(indexed.bookings());
            }
            assert!(deepest >= 300, "seed {seed}: calendars only {deepest} deep");
        }
    }

    #[test]
    fn future_bookings_are_invisible_to_observations() {
        let mut s = PerRequestStation::new(2);
        s.charge(0, 5_000, 100);
        assert_eq!(s.in_system_at(0), 0, "not yet arrived");
        assert_eq!(s.rho_at(0), 0.0);
        assert_eq!(s.in_system_at(5_000), 1);
    }

    #[test]
    fn windowed_offered_load_and_queue_are_measured_exactly() {
        let mut s = PerRequestStation::new(1);
        // One 100 ms demand arriving at t=0: a window holding exactly
        // that much capacity reads offered load 1 (edge buckets are
        // prorated, so the denominator is the true window length); a
        // 1 s window reads 10%.
        s.charge(0, 0, BUCKET);
        assert!((s.rho_windowed(BUCKET, BUCKET) - 1.0).abs() < 1e-12);
        let tenth = s.rho_windowed(10 * BUCKET, 10 * BUCKET);
        assert!((tenth - 0.1).abs() < 1e-12, "{tenth}");
        // No second request yet → nothing ever waited.
        assert_eq!(s.queue_windowed(10 * BUCKET, 10 * BUCKET), 0.0);
        // A second same-instant request doubles the offered work and
        // waits a full bucket for the first to finish: offered stays
        // 2×BUCKET of demand over 2×BUCKET of capacity, and the
        // waiting-time integral reads half a request queued on average
        // over [0, 2×BUCKET].
        s.charge(0, 0, BUCKET);
        let rho = s.rho_windowed(2 * BUCKET, 2 * BUCKET);
        assert!((rho - 1.0).abs() < 1e-12, "{rho}");
        let queue = s.queue_windowed(2 * BUCKET, 2 * BUCKET);
        assert!((queue - 0.5).abs() < 1e-12, "{queue}");
        // An idle future window reads zero on both signals.
        assert_eq!(s.rho_windowed(100 * BUCKET, 10 * BUCKET), 0.0);
        assert_eq!(s.queue_windowed(100 * BUCKET, 10 * BUCKET), 0.0);
    }

    #[test]
    fn per_request_sojourns_grow_without_the_analytic_clamp() {
        // Under the same sustained overload, the analytic station's
        // per-request delay saturates at 49x service while the
        // per-request station's sojourn keeps growing with the real
        // backlog — the reason PerRequest p99s respond to queue build-up
        // first.
        let svc: Nanos = 1_000_000;
        let mut analytic = CpuStation::new(1);
        let mut exact = PerRequestStation::new(1);
        let mut last_analytic = 0;
        let mut last_exact = 0;
        for _ in 0..200 {
            last_analytic = analytic.charge(0, svc);
            last_exact = exact.charge(0, 0, svc);
        }
        assert!(last_analytic <= 50 * svc, "analytic is clamped");
        assert_eq!(last_exact, 200 * svc, "exact sojourn tracks the queue");
    }

    // -- observe(): maintained state against what it replaced --------------

    /// Reference implementation: the historical weighted p99, which
    /// collected and sorted its own `(latency, weight)` window — once for
    /// the whole cluster and once more per region.
    fn weighted_p99(lat: &mut [(Nanos, u64)]) -> Nanos {
        if lat.is_empty() {
            return 0;
        }
        lat.sort_unstable();
        let total: u64 = lat.iter().map(|&(_, w)| w).sum();
        let target = total.saturating_sub(1) * 99 / 100;
        let mut cum = 0u64;
        for &(l, w) in lat.iter() {
            cum += w;
            if cum > target {
                return l;
            }
        }
        lat.last().map_or(0, |&(l, _)| l)
    }

    #[test]
    fn once_sorted_window_matches_the_per_region_sort_reference() {
        assert_eq!(size_of::<(Nanos, u32, u16)>(), 16);
        assert_eq!(sorted_window_stats(&[], None), (0, 0));
        let mut past_u32 = 0;
        for seed in 0..64u64 {
            let mut rng = DetRng::seed(seed);
            let regions = 1 + (seed % 4) as u16;
            // Few distinct latencies, so equal latencies with unequal
            // weights are the rule; a region in two gets no sample; and
            // every third window has weights that sum past `u32::MAX`.
            let silent = (seed % 2 == 1).then_some(regions - 1);
            let heavy = seed % 3 == 0;
            let window: Vec<(Nanos, u32, u16)> = (0..rng.range(0, 400))
                .map(|_| {
                    let region = rng.range(0, u64::from(regions)) as u16;
                    let weight = match rng.range(0, 8) {
                        0 => 0,
                        1 if heavy => u32::MAX - rng.range(0, 3) as u32,
                        _ => rng.range(1, 50) as u32,
                    };
                    (rng.range(1, 12) * 1_000, weight, region)
                })
                .filter(|e| Some(e.2) != silent)
                .collect();
            let mut sorted = window.clone();
            sorted.sort_unstable_by_key(|&(l, _, _)| l);
            for region in std::iter::once(None).chain((0..regions).map(Some)) {
                let mut lat: Vec<(Nanos, u64)> = window
                    .iter()
                    .filter(|e| region.is_none_or(|r| e.2 == r))
                    .map(|&(l, w, _)| (l, u64::from(w)))
                    .collect();
                let total: u64 = lat.iter().map(|&(_, w)| w).sum();
                assert_eq!(
                    sorted_window_stats(&sorted, region),
                    (total, weighted_p99(&mut lat)),
                    "seed {seed}, region {region:?}"
                );
                past_u32 += u32::from(total > u64::from(u32::MAX));
            }
        }
        assert!(past_u32 >= 20, "only {past_u32} sums passed u32::MAX");
    }

    #[test]
    fn owned_counts_follow_every_ownership_flip_and_release() {
        use crate::harness::{Fault, Runner, Scenario, SimRunner};
        use marlin_autoscaler::GranuleMove;
        use marlin_workload::LoadTrace;

        const STEP: Nanos = SECOND / 20;
        let scenario = Scenario::new("owned-counts")
            .params(SimParams::geo())
            .workload(Workload::ycsb(2_000))
            .initial_nodes(8)
            .trace(LoadTrace::constant(16))
            .threads_per_node(2)
            .duration(60 * SECOND);
        let mut runner = SimRunner::new(&scenario);
        let idle = |runner: &SimRunner| runner.sim().workers.iter().all(|(q, at)| *at == q.len());
        // Step the run until its migration workers are done (or `steps`
        // ran out), comparing the maintained counts with the recount
        // (`observe` asserts the same in debug builds) and checking that
        // a release attempt drops exactly the victims left empty.
        let settle = |runner: &mut SimRunner, steps: u32, victims: &[u32]| {
            for step in 0..steps {
                runner.advance(STEP);
                let now = runner.now();
                runner.observe(SECOND);
                let sim = runner.sim_mut();
                sim.release_drained(now);
                let recount = sim.recount_owned();
                assert_eq!(sim.owned, recount, "at {now}");
                assert_eq!(sim.owned.len(), sim.nodes.len());
                assert_eq!(sim.owned.iter().sum::<u64>(), 2_000);
                for &v in victims {
                    assert_eq!(sim.nodes[v as usize].alive, recount[v as usize] > 0);
                    assert_eq!(sim.draining.contains(&v), recount[v as usize] > 0);
                }
                if step > 0 && idle(runner) {
                    return;
                }
            }
        };
        settle(&mut runner, 4, &[]);

        // Scale-out: slots 8..12 are pushed by `allocate_join_slots`.
        runner.actuate(&ScaleAction::add(4));
        assert_eq!(runner.sim().owned.len(), 12);
        settle(&mut runner, 10, &[]);
        // While its plan still runs, the same rebalance plan twice: each
        // granule moves once, the other plan's task for it is stale.
        assert!(!idle(&runner));
        let moves: Vec<GranuleMove> = (0..2_000u64)
            .filter(|&g| runner.sim().granules[g as usize].owner == 0)
            .take(40)
            .map(|g| GranuleMove {
                granule: GranuleId(g),
                src: NodeId(0),
                dst: NodeId(4),
            })
            .collect();
        assert_eq!(moves.len(), 40);
        runner.actuate(&ScaleAction::Rebalance {
            moves: moves.clone(),
        });
        runner.actuate(&ScaleAction::Rebalance { moves });
        settle(&mut runner, 400, &[]);
        assert!(idle(&runner));
        let tasks: usize = runner.sim().workers.iter().map(|(q, _)| q.len()).sum();
        let migrated = runner.sim().metrics.migrations.total();
        assert!(migrated + 40 <= tasks as u64, "stale tasks skipped");
        assert!(runner.sim().owned[8..].iter().all(|&n| n > 0));

        // Scale-in, region-local: nodes 1 and 9 (one initial, one joined)
        // drain onto node 5, the survivor in their region.
        let before = runner.sim().owned.clone();
        runner.actuate(&ScaleAction::RemoveNodes {
            victims: vec![NodeId(1), NodeId(9)],
        });
        settle(&mut runner, 400, &[1, 9]);
        let sim = runner.sim();
        assert!(!sim.nodes[1].alive && !sim.nodes[9].alive && sim.draining.is_empty());
        assert_eq!(sim.owned[5], before[1] + before[5] + before[9]);

        // Scale-out again: the two released slots are reused, one pushed.
        runner.actuate(&ScaleAction::add(3));
        assert_eq!(runner.sim().owned.len(), 13);
        settle(&mut runner, 400, &[]);
        assert!(idle(&runner));
        let sim = runner.sim();
        assert!(sim.nodes.iter().all(|n| n.alive));
        assert!(sim.owned[1] > 0 && sim.owned[9] > 0 && sim.owned[12] > 0);

        // A crash is modeled as an immediate drain of the victim.
        runner.inject(&Fault::Crash(NodeId(12)));
        settle(&mut runner, 400, &[12]);
        assert_eq!(runner.sim().live_nodes(), 12);
        assert_eq!(runner.sim().owned[12], 0);
    }

    #[test]
    fn observe_sub_phases_sum_to_at_most_observe() {
        let mut sim = ClusterSim::new(
            SimParams::geo(),
            CoordKind::Marlin,
            &Workload::ycsb(2_000),
            8,
            64,
            4 * SECOND,
        );
        sim.enable_profiling();
        for tick in 1..=4 {
            sim.run_until(tick * SECOND);
            sim.observe(tick * SECOND, SECOND);
        }
        let profile = sim.profile_summary();
        let observe = profile.phase("observe").expect("observe ran");
        let mut children = 0;
        for name in ["latency", "placement", "heat", "regions"] {
            let phase = profile
                .phase(&format!("observe:{name}"))
                .unwrap_or_else(|| panic!("observe:{name} missing"));
            assert_eq!(phase.calls, observe.calls);
            children += phase.wall_nanos;
        }
        assert_eq!(observe.calls, 4);
        assert!(children <= observe.wall_nanos, "{children} > {observe:?}");
        assert!(children > 0);
    }

    // -- ClusterSim: memory follows the in-flight window, not the run ------

    #[test]
    fn simulator_state_does_not_grow_with_the_commits_of_a_run() {
        // All a simulated log can hold is its LSN.
        assert_eq!(size_of::<SimLog>(), size_of::<Lsn>());
        let run = |horizon: Nanos| {
            let params = SimParams {
                cpu_model: CpuModel::PerRequest,
                ..SimParams::default()
            };
            let mut sim = ClusterSim::new(
                params,
                CoordKind::Marlin,
                &Workload::ycsb(64),
                2,
                16,
                horizon,
            );
            sim.run();
            let mut appended = 0;
            let mut booked = 0;
            for node in &sim.nodes {
                appended += node.glog.0 .0;
                let NodeCpu::PerRequest(station) = &node.cpu else {
                    panic!("the run asked for per-request stations");
                };
                // Pruning kept up with the event clock on a node that is
                // charged by every transaction it homes...
                assert!(horizon - station.pruned_at < SECOND / 10);
                // ...and left nothing that ended at or before it.
                assert!(station
                    .workers
                    .iter()
                    .flatten()
                    .all(|b| b.end > station.pruned_at));
                booked += station.bookings();
            }
            let coord = &sim.metrics.coord;
            assert_eq!(
                appended,
                coord.commit_cas_attempts - coord.commit_cas_retries,
                "one record per commit CAS won"
            );
            (appended, booked)
        };
        let (short_appended, short_booked) = run(SECOND);
        let (long_appended, long_booked) = run(4 * SECOND);
        assert!(
            long_appended > 3 * short_appended,
            "4x the run, ~4x the commits"
        );
        // 16 closed-loop clients with 16 requests each bound what can be
        // in flight, however long the run has been going.
        assert!(short_booked <= 16 * 16 && long_booked <= 16 * 16);
    }
}
