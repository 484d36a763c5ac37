//! Five measured sections of the primitives the simulator leans on,
//! each asserting what it is named for and landing in
//! `BENCH_micro_primitives.json`: the per-request station under the
//! deep calendars the simulator really builds, one control tick's
//! `observe()` on a 200 k-granule cluster, one `MigrationDriver` round
//! as the simulator's effect pricer runs it per migration, `EventQueue`
//! schedule/pop at the depth the exact engine keeps it, and the
//! telemetry overhead guard (disabled instrumentation must cost <2% of a
//! run and leave decision logs bit-identical). The storage-side protocol
//! primitives (conditional append, lock table, GTable apply) are timed
//! by the probes of the `e2e` benchmark.

use marlin_cluster::harness::{run, RunReport, Runner, Scenario, SimRunner};
use marlin_cluster::params::CoordKind;
use marlin_cluster::PerRequestStation;
use marlin_common::{GranuleId, KeyRange, LogId, Lsn, NodeId, TableId, TxnId};
use marlin_core::drivers::{Effect, Input, MigrationDriver};
use marlin_core::{GranuleMeta, LsnTracker};
use marlin_sim::{ActorId, DetRng, EventQueue, Nanos, MILLISECOND, SECOND};
use marlin_telemetry::{BenchReport, BenchSection, Profiler, Tracer, DEFAULT_TRACE_CAPACITY};
use std::hint::black_box;
use std::time::Instant;

/// The scenario the overhead guard measures: a short Marlin autoscale
/// spike at 1/100 granule scale — enough event traffic to be meaningful,
/// small enough to repeat.
fn guard_scenario() -> Scenario {
    Scenario::autoscale_spike(CoordKind::Marlin, 100)
}

/// `report.to_json()` with the host-dependent parts stripped: actuation
/// wall times zeroed and the telemetry section dropped, leaving exactly
/// the deterministic decision-log surface.
fn stripped_json(mut report: RunReport) -> String {
    for r in &mut report.log {
        r.actuation_micros = 0;
    }
    report.telemetry = None;
    report.to_json()
}

fn timed_run(enable_telemetry: bool) -> (u64, RunReport) {
    let scenario = guard_scenario();
    let mut runner = SimRunner::new(&scenario);
    if enable_telemetry {
        runner.sim_mut().enable_tracing(DEFAULT_TRACE_CAPACITY);
        runner.sim_mut().enable_profiling();
    }
    let start = Instant::now();
    let report = run(scenario, &mut runner);
    (start.elapsed().as_nanos() as u64, report)
}

/// The telemetry overhead guard: it pins a ratio and a bit-identical
/// decision log, so it asserts instead of sampling.
///
/// The disabled-telemetry hot path costs one branch per instrumentation
/// point. The guard measures that branch cost directly on disabled
/// instruments, scales it by the run's dispatched-event count, and pins
/// the total under 2% of the run's wall time — the "disabled telemetry
/// is free" contract, measured rather than asserted by construction.
fn telemetry_overhead() -> BenchSection {
    // Decision-log parity: two telemetry-off runs and one telemetry-on
    // run must produce byte-identical deterministic surfaces.
    let (_, off_a) = timed_run(false);
    let (_, off_b) = timed_run(false);
    let (_, on) = timed_run(true);
    let events = on.telemetry.as_ref().map_or(0, |t| t.profile.events);
    let off_json = stripped_json(off_a);
    assert_eq!(
        off_json,
        stripped_json(off_b),
        "telemetry-off runs must be bit-identical"
    );
    assert_eq!(
        off_json,
        stripped_json(on),
        "enabling telemetry must not perturb the decision log"
    );

    // Per-point cost of the disabled instruments (the real hot path:
    // Profiler::start / record and Tracer::is_enabled per dispatch).
    // Each iteration re-reads the instruments through `black_box`, so
    // the optimizer cannot fold the disabled checks out of the loop.
    let profiler = Profiler::disabled();
    let tracer = Tracer::disabled();
    let probe_iters: u64 = 4_000_000;
    let probe = Instant::now();
    let mut sink = 0u64;
    for _ in 0..probe_iters {
        let t0 = black_box(&profiler).start();
        sink += u64::from(t0.is_none());
        sink += u64::from(black_box(&tracer).is_enabled());
    }
    let per_point = probe.elapsed().as_nanos() as f64 / probe_iters as f64;
    assert!(
        black_box(sink) >= probe_iters,
        "keep the probe loop observable"
    );
    // A loop the optimizer folded away finishes 4 M iterations in well
    // under a millisecond; two real checks a point cost more than this.
    assert!(
        per_point >= 0.05,
        "the probe measured {per_point:.4} ns/point: the disabled checks were optimized out"
    );

    // Min-of-N wall time of the real telemetry-off run.
    let t_off = (0..3).map(|_| timed_run(false).0).min().unwrap_or(1).max(1);
    // Roughly two instrumentation points per dispatched event (prologue
    // + epilogue), and events dominate the instrumented surface.
    let overhead_ns = per_point * 2.0 * events as f64;
    let overhead_pct = overhead_ns / t_off as f64 * 100.0;
    println!(
        "telemetry-off overhead: {overhead_pct:.4}% \
         ({events} events x {per_point:.2} ns/point over {t_off} ns)"
    );
    assert!(
        overhead_pct < 2.0,
        "disabled telemetry must stay under 2% of run wall time \
         (measured {overhead_pct:.4}%)"
    );

    BenchSection {
        name: "telemetry_overhead_guard".into(),
        wall_nanos: t_off,
        virtual_nanos: guard_scenario().horizon,
        wall_bounded: false,
        profile: None,
        values: vec![
            ("overhead_pct".into(), overhead_pct),
            ("events".into(), events as f64),
            ("ns_per_disabled_point".into(), per_point),
        ],
    }
}

/// `PerRequestStation::charge` under the traffic `sim_geo_perrequest`
/// puts on it (measured by instrumenting the station there: 8.7 M
/// charges per run against ~294 live bookings on 4 workers). A
/// transaction prices its whole timeline in one event, so every event
/// clock tick brings 16 offers at increasing future times, and a
/// station holds the bookings of every transaction still in flight —
/// a few hundred, not the < 10 a back-to-back probe builds. That depth
/// is what `charge` has to be cheap at.
fn station_deep_calendar() -> BenchSection {
    const OFFERS: u64 = 16;
    // 16 x 10 us of demand per 50 us tick on 4 workers: 80% load.
    const TICK: Nanos = 50_000;
    const SERVICE: Nanos = 10_000;
    // Round trip between a transaction's requests. With a sojourn of
    // ~20 us that puts them ~110 us apart, a booking stays live for 8.5
    // of those gaps on average, and 16 x 8.5 x 110 / 50 ~ 300 are live.
    const STEP: Nanos = 90_000;
    let mut station = PerRequestStation::new(4);
    let mut rng = DetRng::seed(14);
    let mut now: Nanos = 0;
    let mut transaction = |station: &mut PerRequestStation| {
        now += TICK;
        let mut at = now;
        for _ in 0..OFFERS {
            at += STEP;
            at += station.charge(now, at, rng.range(SERVICE / 2, SERVICE * 3 / 2));
        }
        at
    };
    for _ in 0..2_000 {
        transaction(&mut station);
    }
    let ticks: u64 = 200_000;
    let (mut depth, mut sink) = (0u64, 0u64);
    let timer = Instant::now();
    for _ in 0..ticks {
        sink = sink.wrapping_add(black_box(transaction(&mut station)));
        depth += station.bookings() as u64;
    }
    let wall_nanos = timer.elapsed().as_nanos() as u64;
    assert!(sink > 0, "keep the charge loop observable");
    let charges = ticks * OFFERS;
    let ns_per_charge = wall_nanos as f64 / charges as f64;
    let mean_depth = depth as f64 / ticks as f64;
    println!(
        "station, deep calendar: {ns_per_charge:.1} ns/charge at {mean_depth:.0} live bookings \
         ({charges} charges)"
    );
    assert!(
        mean_depth >= 200.0,
        "the case must hold the deep calendars it is named for (held {mean_depth:.0})"
    );
    BenchSection {
        name: "station_deep_calendar".into(),
        wall_nanos,
        virtual_nanos: ticks * TICK,
        wall_bounded: false,
        profile: None,
        values: vec![
            ("ns_per_charge".into(), ns_per_charge),
            ("live_bookings_mean".into(), mean_depth),
            ("charges".into(), charges as f64),
        ],
    }
}

/// One control tick's `ClusterSim::observe` at the size the simulator
/// workloads of `e2e` run it at — 200 k granules on 16 nodes — with one
/// control interval of real traffic between calls, on both
/// configurations: the exact engine (800 clients, uniform YCSB, exact
/// heat vector and tuple window: ~11.5 k commits a tick, each touching
/// one granule, a 2 s window) and the scale engine (1 M cohort clients,
/// Zipfian, heat sketch and latency histogram). Only `observe` is
/// timed. What it must not cost is a pass over the granules: the counts
/// it reports are maintained, and ranking and clearing the heat window
/// touch only what the window touched.
fn observe_tick() -> BenchSection {
    const GRANULES: u64 = 200_000;
    const NODES: usize = 16;
    const TICKS: u64 = 20;
    // Per timed tick: (wall ns of `observe`, keys the heat ranking looked
    // at, commits in the observation window).
    let measure = |scenario: &Scenario, touched_at_least: usize| {
        let (interval, window) = (scenario.control_interval, scenario.observe_window);
        assert!((TICKS + 2) * interval <= scenario.horizon);
        let mut runner = SimRunner::new(scenario);
        let (mut wall, mut touched, mut sink) = (0u64, 0usize, 0.0f64);
        // Two untimed ticks fill the latency window.
        for tick in 0..TICKS + 2 {
            runner.advance(interval);
            let keys = runner.sim().heat_touched();
            let timer = Instant::now();
            let obs = black_box(runner.observe(window));
            let spent = timer.elapsed().as_nanos() as u64;
            assert_eq!(obs.node_loads.len(), NODES);
            let owned: u64 = obs.node_loads.iter().map(|n| n.owned_granules).sum();
            assert_eq!(
                owned, GRANULES,
                "the case must hold the granules it is named for"
            );
            assert_eq!(obs.granule_loads.len(), 64);
            assert!(
                keys >= touched_at_least,
                "a tick must touch the keys it is sized for ({keys} < {touched_at_least})"
            );
            assert_eq!(runner.sim().heat_touched(), 0, "observe clears the window");
            if tick >= 2 {
                wall += spent;
                touched += keys;
                sink += obs.throughput_tps;
            }
        }
        assert!(sink > 0.0, "the timed windows must hold commits");
        (
            wall as f64 / TICKS as f64,
            touched as f64 / TICKS as f64,
            sink / TICKS as f64 * window as f64 / 1e9,
        )
    };
    // Driven tick by tick, so the preset's scripted scale-out never runs.
    let exact = Scenario::ycsb_scale_out(CoordKind::Marlin, 1).initial_nodes(NODES as u32);
    let (exact_ns, exact_touched, exact_commits) = measure(&exact, 8_000);
    let cohort = Scenario::million_clients(1).duration(200 * SECOND);
    let (cohort_ns, cohort_touched, _) = measure(&cohort, 64);
    println!(
        "observe, one tick at {GRANULES} granules: exact {exact_ns:.0} ns \
         ({exact_touched:.0} touched keys, {exact_commits:.0} window commits), \
         cohort/sketch/hist {cohort_ns:.0} ns ({cohort_touched:.0} candidates)"
    );
    BenchSection {
        name: "observe_tick".into(),
        wall_nanos: ((exact_ns + cohort_ns) * TICKS as f64) as u64,
        virtual_nanos: TICKS * (exact.control_interval + cohort.control_interval),
        wall_bounded: false,
        profile: None,
        values: vec![
            ("ns_per_observe_exact".into(), exact_ns),
            ("ns_per_observe_cohort".into(), cohort_ns),
            ("touched_keys_exact".into(), exact_touched),
            ("window_commits_exact".into(), exact_commits),
            ("granules".into(), GRANULES as f64),
        ],
    }
}

/// One `MigrationDriver` round, the protocol work the simulator's effect
/// pricer adds to every Marlin migration: `new` → `OwnersAt` →
/// `AppendOk` → `VoteResp`, the 2PC `CommitDriver` inside it included.
/// Only the driver is timed (no pricing); every round must commit and
/// end on its two decisions. `virtual_ns` counts one nominal ns per
/// round, so bench-diff's virtual-per-wall floor is a floor on rounds
/// per wall ns.
fn migration_driver_round() -> BenchSection {
    const ROUNDS: u64 = 200_000;
    let (src, dst) = (NodeId(0), NodeId(1));
    let tracker = LsnTracker::new();
    let round = |r: u64| {
        let g = GranuleId(r);
        let meta = GranuleMeta {
            table: TableId(0),
            range: KeyRange::new(r, r + 1),
            owner: src,
        };
        let (mut driver, read) = MigrationDriver::new(TxnId(r), src, dst, vec![g]);
        let owners = Some(vec![(g, meta)]);
        let phase_one = driver.on_input(Input::OwnersAt { from: src, owners }, &tracker);
        let appended = Input::AppendOk {
            log: LogId::GLog(dst),
            new_lsn: Lsn(r + 1),
        };
        driver.on_input(appended, &tracker);
        let decisions = driver.on_input(
            Input::VoteResp {
                from: src,
                yes: true,
            },
            &tracker,
        );
        assert_eq!(driver.result(), Some(&Ok(())), "every round commits");
        read.len() + phase_one.len() + decisions.len()
    };
    for r in 0..ROUNDS / 10 {
        black_box(round(r));
    }
    let timer = Instant::now();
    let mut effects = 0;
    for r in 0..ROUNDS {
        effects += black_box(round(r));
    }
    let wall_nanos = timer.elapsed().as_nanos() as u64;
    // One owner read, a prepared append and a vote request, then an
    // append and a message carrying the decision.
    assert_eq!(effects, 5 * ROUNDS as usize, "a round is five effects");
    let (_, read) = MigrationDriver::new(TxnId(0), src, dst, vec![GranuleId(0)]);
    assert!(matches!(read[..], [Effect::ReadOwnersRemote { .. }]));
    let ns_per_round = wall_nanos as f64 / ROUNDS as f64;
    println!("migration driver: {ns_per_round:.0} ns/round ({ROUNDS} rounds)");
    BenchSection {
        name: "migration_driver_round".into(),
        wall_nanos,
        virtual_nanos: ROUNDS,
        wall_bounded: false,
        profile: None,
        values: vec![
            ("ns_per_round".into(), ns_per_round),
            ("rounds".into(), ROUNDS as f64),
        ],
    }
}

/// `EventQueue` schedule/pop in the shape `sim_scaleout_exact` gives it
/// (2 399 events pending at most): 800 closed-loop clients each
/// reschedule 20–120 ms ahead, and about one event in ten is a one-shot
/// landing 0.5–2 s ahead, as a migration step, route update or warm-up
/// end does. Delays are drawn up front, so only the queue is timed.
/// `virtual_ns` is the virtual time the timed pops cover.
fn event_queue() -> BenchSection {
    const CLIENTS: u32 = 800;
    const POPS: u64 = 2_000_000;
    let mut rng = DetRng::seed(46);
    let draws: Vec<(Nanos, Option<Nanos>)> = (0..1 << 16)
        .map(|_| {
            let next = rng.range(20 * MILLISECOND, 120 * MILLISECOND);
            let far = (rng.range(0, 10) == 0).then(|| rng.range(SECOND / 2, 2 * SECOND));
            (next, far)
        })
        .collect();
    let mut q = EventQueue::new();
    for (client, &(next, _)) in (0..CLIENTS).zip(&draws) {
        q.schedule(next, ActorId(0), client);
    }
    let mut draw = 0usize;
    // Pop one event; a client's reschedules it (and maybe a one-shot).
    let mut step = |q: &mut EventQueue<u32>| {
        let e = q.pop().expect("a client event is always pending");
        if e.msg < CLIENTS {
            draw = (draw + 1) % draws.len();
            let (next, far) = draws[draw];
            q.schedule(next, ActorId(0), e.msg);
            if let Some(far) = far {
                q.schedule(far, ActorId(0), CLIENTS);
            }
        }
        e.at
    };
    // Fill the one-shot population to its steady count.
    let mut from = 0;
    for _ in 0..POPS / 4 {
        from = step(&mut q);
    }
    let (mut to, mut depth) = (from, 0u64);
    let timer = Instant::now();
    for _ in 0..POPS {
        to = black_box(step(&mut q));
        depth += q.pending() as u64;
    }
    let wall_nanos = timer.elapsed().as_nanos() as u64;
    let ns_per_pair = wall_nanos as f64 / POPS as f64;
    let pending_mean = depth as f64 / POPS as f64;
    println!(
        "event queue: {ns_per_pair:.1} ns/schedule+pop at {pending_mean:.0} pending ({POPS} pops)"
    );
    assert!(
        pending_mean >= 1_000.0,
        "the case must hold the depth it is named for (held {pending_mean:.0})"
    );
    BenchSection {
        name: "event_queue".into(),
        wall_nanos,
        virtual_nanos: to - from,
        wall_bounded: false,
        profile: None,
        values: vec![
            ("ns_per_schedule_pop".into(), ns_per_pair),
            ("pending_mean".into(), pending_mean),
            ("pops".into(), POPS as f64),
        ],
    }
}

fn main() {
    let mut bench = BenchReport::new("micro_primitives", marlin_bench::scale());
    bench.sections.push(station_deep_calendar());
    bench.sections.push(observe_tick());
    bench.sections.push(migration_driver_round());
    bench.sections.push(event_queue());
    bench.sections.push(telemetry_overhead());
    bench.maybe_write();
}
