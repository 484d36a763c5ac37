//! The node CPU stations: the analytic EMA model, the per-request
//! reservation calendar, and [`NodeCpu`], the one call surface a node
//! holds whichever [`CpuModel`] its run selected.

use super::*;

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
pub(super) const CPU_TAU: f64 = 0.5e9;

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

/// One reserved service slot `[start, end)` on a [`PerRequestStation`]
/// worker. The arrival it was booked for is not kept: the charge that
/// booked it returned the sojourn, and the waiting it implies is already
/// in the station's waiting-time integral.
#[derive(Clone, Copy, Debug)]
pub(super) struct Slot {
    pub(super) start: Nanos,
    pub(super) end: Nanos,
}

/// One worker of a [`PerRequestStation`]: its reserved slots, sorted by
/// start and by end, and a search hint into them.
#[derive(Clone, Default)]
pub(super) struct Calendar {
    pub(super) slots: Vec<Slot>,
    /// Every slot below this index ends at or before the station's last
    /// arrival. Reset to 0 when the clock advances (the dead prefix is
    /// drained, which shifts the indices) and when an arrival moves back.
    hint: usize,
}

impl Calendar {
    /// Index of the first slot ending after `at`, galloping forward from
    /// the hint. Requires `at` at or after the arrival the hint was set for.
    fn first_ending_after(&self, at: Nanos) -> usize {
        let rest = &self.slots[self.hint..];
        // `rest[..lo]` all end at or before `at`; the boundary is below `hi`.
        let (mut lo, mut hi) = (0, 1);
        while hi <= rest.len() && rest[hi - 1].end <= at {
            lo = hi;
            hi *= 2;
        }
        let hi = hi.min(rest.len());
        self.hint + lo + rest[lo..hi].partition_point(|s| s.end <= at)
    }
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
/// Bookings wholly in the past of the event clock are pruned when a
/// charge finds the clock advanced, so memory tracks the in-flight
/// transaction window, not the run length.
///
/// **Invariant and cost.** A worker's slots never overlap (a zero-length
/// slot never lies strictly inside another), and each new slot is
/// inserted where its scan stopped, so every calendar is sorted by slot
/// start *and* by slot end. The dead bookings are therefore a front
/// prefix, and the first slot still busy at an arrival is a search on
/// slot end. A charge runs in two passes. Pass 1 visits the workers in
/// index order and stops at the first one whose first busy slot starts
/// only after the request would be done (or that has none): that worker
/// starts the request on arrival, the earliest start there is, and the
/// lowest index is the tie-break the choice has always used. Pass 2 runs
/// only when every worker is busy at the arrival: the first-gap scan per
/// worker, from the slot pass 1 found. The search gallops forward from a
/// per-worker *hint*, an index below which every slot ends at or before
/// the previous arrival; arrivals of one walk increase, so the hint skips
/// what the walk's earlier requests already searched past. It resets
/// when the clock advances and when an arrival moves back (a new walk).
/// Measured on `sim_geo_perrequest` (8.7 M charges per run, ~72 live
/// slots per worker), 85 % of charges find a worker free on arrival;
/// the single pass this replaced binary-searched 2.28 workers and
/// stepped over 3.55 busy slots per charge, mostly on workers that
/// could not win. That workload now costs 1.4 µs per simulated event,
/// against 2.0 µs with the single pass.
pub struct PerRequestStation {
    /// Per-worker reservation calendars.
    pub(super) workers: Vec<Calendar>,
    /// Offered-work integral per [`BUCKET`] of virtual time (each
    /// request's service demand deposited at its arrival).
    pub(super) offered_ring: Ring,
    /// Waiting-time integral (queue length × time) per bucket.
    pub(super) wait_ring: Ring,
    /// Event clock of the last calendar pruning — nothing new can die
    /// until the clock advances, so same-event charges (a transaction's
    /// whole timeline prices in one event) skip the pruning pass.
    pub(super) pruned_at: Nanos,
    /// The arrival of the last charge, which the calendars' hints are
    /// valid for.
    last_arrival: Nanos,
}

/// Bucket width of the windowed-occupancy rings (100 ms).
pub(super) const BUCKET: Nanos = 100 * 1_000_000;

/// Ring length in buckets: covers the 60 s maximum observation window
/// plus 70 s of booking lookahead under deep backlog (paper-scale
/// backlogs book a few seconds ahead at most).
const RING: u64 = 1_300;

/// The lookahead budget the ring affords: a bucket this far past the
/// event clock would recycle a slot still inside a live trailing window
/// of the maximum length. One extra bucket is reserved because a
/// windowed read spans `window/BUCKET + 1` buckets (the window-edge
/// bucket is included whole).
const MAX_LOOKAHEAD: Nanos = RING * BUCKET - ClusterSim::MAX_OBSERVE_WINDOW - BUCKET;

/// A per-[`BUCKET`] integral over virtual time: a ring of
/// `(bucket id, total)` slots for the buckets within the lookahead
/// budget of the event clock, and an ordered map for those past it. A
/// transaction's whole timeline prices in one event, so one that
/// crosses a partitioned region's 5 s hops can book a minute or more
/// ahead; its far buckets move into the ring as the clock catches up.
pub(super) struct Ring {
    slots: Vec<(u64, u64)>,
    far: std::collections::BTreeMap<u64, u64>,
    /// The first bucket past the lookahead budget.
    reach: u64,
}

impl Ring {
    fn new() -> Self {
        Ring {
            slots: vec![(u64::MAX, 0); RING as usize],
            far: std::collections::BTreeMap::new(),
            reach: MAX_LOOKAHEAD / BUCKET,
        }
    }

    /// The event clock reached `now`: move the far buckets now within
    /// the budget into the ring.
    fn advance(&mut self, now: Nanos) {
        self.reach = (now + MAX_LOOKAHEAD) / BUCKET;
        while let Some(entry) = self.far.first_entry().filter(|e| *e.key() < self.reach) {
            let (bucket, total) = entry.remove_entry();
            *ring_slot(self, bucket) += total;
        }
    }
}

/// The total of `bucket`. A ring slot is recycled (tag rewritten, value
/// zeroed) if it still holds an older bucket's total.
pub(super) fn ring_slot(ring: &mut Ring, bucket: u64) -> &mut u64 {
    if bucket >= ring.reach {
        return ring.far.entry(bucket).or_default();
    }
    let slot = &mut ring.slots[(bucket % RING) as usize];
    if slot.0 != bucket {
        *slot = (bucket, 0);
    }
    &mut slot.1
}

/// Distribute the interval `[from, to)` into the ring's buckets.
pub(super) fn deposit(ring: &mut Ring, from: Nanos, to: Nanos) {
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
fn ring_integral(ring: &Ring, cutoff: Nanos, at: Nanos) -> f64 {
    let prorated = |bucket: u64, total: u64| {
        let b_start = bucket * BUCKET;
        let overlap = (b_start + BUCKET)
            .min(at)
            .saturating_sub(b_start.max(cutoff));
        total as f64 * overlap as f64 / BUCKET as f64
    };
    let mut sum = 0.0;
    for bucket in (cutoff / BUCKET)..=(at / BUCKET) {
        let slot = ring.slots[(bucket % RING) as usize];
        if slot.0 == bucket {
            sum += prorated(bucket, slot.1);
        }
    }
    for (&bucket, &total) in ring.far.range(cutoff / BUCKET..=at / BUCKET) {
        sum += prorated(bucket, total);
    }
    sum
}

impl PerRequestStation {
    /// An idle station with `workers` service threads.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "a station needs at least one worker");
        PerRequestStation {
            workers: vec![Calendar::default(); workers],
            offered_ring: Ring::new(),
            wait_ring: Ring::new(),
            pruned_at: 0,
            last_arrival: 0,
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
                let dead = calendar.slots.partition_point(|s| s.end <= now);
                calendar.slots.drain(..dead);
                calendar.hint = 0;
            }
            self.pruned_at = now;
            self.offered_ring.advance(now);
            self.wait_ring.advance(now);
        } else if at < self.last_arrival {
            for calendar in &mut self.workers {
                calendar.hint = 0;
            }
        }
        self.last_arrival = at;
        // Pass 1: the first worker free for `[at, at + service)` — its
        // first slot still busy at `at` starts only after the request
        // would be done. A start of `at` cannot be beaten, and the lowest
        // index wins ties. Every worker passed on keeps the slot it found
        // as its hint, which is where pass 2 starts.
        let done = at.saturating_add(service);
        let mut free = None;
        for (i, calendar) in self.workers.iter_mut().enumerate() {
            let k = calendar.first_ending_after(at);
            calendar.hint = k;
            if calendar.slots.get(k).is_none_or(|s| s.start >= done) {
                free = Some((i, k));
                break;
            }
        }
        let (w, start, pos) = match free {
            Some((w, k)) => (w, at, k),
            None => self.earliest_gap(at, service),
        };
        let end = start + service;
        deposit(&mut self.wait_ring, at, start);
        // Offered work is a point event: the whole service demand lands
        // in the arrival's bucket (uniform within it, as far as a
        // prorated read can tell).
        *ring_slot(&mut self.offered_ring, at / BUCKET) += service;
        // Everything the scan passed ends at or before `start` and
        // everything from `pos` on starts at or after `end`, so the slot
        // goes exactly where the scan stopped and both orders hold.
        // The slot lands at or past the hint, so the hint stays valid.
        let slots = &mut self.workers[w].slots;
        debug_assert!(pos == 0 || slots[pos - 1].end <= start);
        debug_assert!(slots.get(pos).is_none_or(|s| s.start >= end));
        slots.insert(pos, Slot { start, end });
        end - at
    }

    /// Pass 2 of [`PerRequestStation::charge`], for when every worker is
    /// busy at `at`: per worker, push the candidate start past each
    /// overlapping slot from the hint on until a gap of `service` opens
    /// (or the calendar ends), and keep the earliest start, lowest worker
    /// index on ties. Returns `(worker, start, insert position)`.
    fn earliest_gap(&self, at: Nanos, service: Nanos) -> (usize, Nanos, usize) {
        let (mut start, mut w, mut pos) = (Nanos::MAX, 0, 0);
        for (i, calendar) in self.workers.iter().enumerate() {
            let (mut candidate, mut k) = (at, calendar.hint);
            while let Some(s) = calendar.slots.get(k) {
                if s.start >= candidate.saturating_add(service) {
                    break; // the gap before `s` fits the whole slot
                }
                candidate = candidate.max(s.end);
                k += 1;
            }
            // Strict `<` keeps the lowest worker index on ties, which
            // makes slot assignment deterministic.
            if i == 0 || candidate < start {
                (start, w, pos) = (candidate, i, k);
            }
        }
        (w, start, pos)
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
        self.workers.iter().map(|c| c.slots.len()).sum()
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
pub(super) enum NodeCpu {
    Analytic(CpuStation),
    PerRequest(PerRequestStation),
}

impl NodeCpu {
    pub(super) fn new(model: CpuModel, workers: usize) -> Self {
        match model {
            CpuModel::Analytic => NodeCpu::Analytic(CpuStation::new(workers)),
            CpuModel::PerRequest => NodeCpu::PerRequest(PerRequestStation::new(workers)),
        }
    }

    pub(super) fn charge(&mut self, now: Nanos, at: Nanos, service: Nanos) -> Nanos {
        match self {
            NodeCpu::Analytic(s) => s.charge(at, service),
            NodeCpu::PerRequest(s) => s.charge(now, at, service),
        }
    }

    /// The utilization an observation reports: offered load, as the EMA
    /// estimate decayed to `at` (analytic) or measured exactly over the
    /// trailing `window` (per-request).
    pub(super) fn observed_rho(&self, at: Nanos, window: Nanos) -> f64 {
        match self {
            NodeCpu::Analytic(s) => s.rho_at(at),
            NodeCpu::PerRequest(s) => s.rho_windowed(at, window),
        }
    }

    /// Bulk-deposit offered work without pricing a sojourn (cohort
    /// engine): the EMA estimator (analytic) or the offered-load ring
    /// (per-request) absorbs the aggregate demand of a sampled walk's
    /// unmaterialized copies.
    pub(super) fn offer(&mut self, at: Nanos, service: Nanos) {
        match self {
            NodeCpu::Analytic(s) => s.offer(at, service),
            NodeCpu::PerRequest(s) => s.offer(at, service),
        }
    }

    /// The measured queue length per worker over the window, when the
    /// model can measure one (`None` tells the observation to fall back
    /// to the modeled utilization excess).
    pub(super) fn observed_queue(&self, at: Nanos, window: Nanos) -> Option<f64> {
        match self {
            NodeCpu::Analytic(_) => None,
            NodeCpu::PerRequest(s) => Some(s.queue_windowed(at, window)),
        }
    }
}
