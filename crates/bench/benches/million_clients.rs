//! Million-client scale bench: the cohort engine vs the exact engine.
//!
//! Runs the `million_clients` preset (1 M closed-loop clients at scale 1)
//! end to end on the cohort engine, then probes the exact per-client
//! engine on the same cluster and workload to measure how many virtual
//! seconds each engine simulates per wall second. The exact probe runs a
//! *reduced* client count (construction and event cost are linear in
//! clients, and a million exact Zipf samplers alone would take hours), so
//! the probe's rate *over*states what exact could do at full scale — the
//! asserted speedup is a conservative lower bound.
//!
//! The bench is the CI perf gate for the scale engine: it asserts the
//! sustained client count, a flat virtual-per-wall floor, and a ≥10×
//! cohort-over-exact speedup, and records all of it in
//! `BENCH_million_clients.json` (`MARLIN_BENCH_JSON=<dir>`).

use std::time::{Duration, Instant};

use marlin_bench::{banner, scale};
use marlin_cluster::harness::{maybe_write_json, run, Scenario, SimRunner};
use marlin_cluster::params::ClientEngine;
use marlin_sim::SECOND;
use marlin_telemetry::{BenchReport, BenchSection};

/// Exact-engine probe size: enough clients for a stable event-loop rate,
/// few enough that Zipf-sampler construction stays in seconds.
const EXACT_PROBE_CLIENTS: u64 = 2_000;
/// Wall budget for the exact probe; its rate is measured, not its total.
const EXACT_PROBE_WALL: Duration = Duration::from_millis(1_500);
/// Flat floor on the cohort engine's virtual-seconds-per-wall-second —
/// far below the ~3,000× seen on a laptop, high enough to catch an
/// accidental return to per-client cost.
const MIN_VIRTUAL_PER_WALL: f64 = 25.0;

fn main() {
    // Clamp so heat stays sketched even under aggressive MARLIN_SCALE
    // shrinks: the sketch's granule floor (200k/s >= 4_096) needs
    // s <= 48.
    let s = scale().min(40);
    let started = Instant::now();
    banner(
        "Million clients — cohort scale engine vs exact per-client engine",
        "flow-level cohorts + sketched heat sustain 1M clients at >=10x the exact engine's rate",
    );

    // -- the cohort run: the preset, end to end through the controller.
    let scenario = Scenario::million_clients(s);
    let horizon = scenario.horizon;
    let expected_clients = u64::from(scenario.trace.peak());
    let mut runner = SimRunner::new(&scenario);
    assert!(
        runner.sim().cohort_active(),
        "million_clients must activate the cohort engine"
    );
    assert!(
        runner.sim().heat_sketched(),
        "million_clients must sketch granule heat"
    );
    let wall = Instant::now();
    let report = run(scenario, &mut runner);
    let cohort_wall = wall.elapsed();
    let active = u64::from(runner.sim().active_clients());
    let cohort_vpw = horizon as f64 / cohort_wall.as_secs_f64() / SECOND as f64;
    println!(
        "cohort  {active:>9} clients  {:>11} commits  {:>8.2}s wall  {:>8.0} virt-s/wall-s",
        report.metrics.commits,
        cohort_wall.as_secs_f64(),
        cohort_vpw,
    );
    if let Some(step) = report
        .telemetry
        .as_ref()
        .and_then(|t| t.profile.phase("event:cohort_step"))
    {
        println!(
            "        cohort stepping: {} calls, {:.1}ms wall",
            step.calls,
            step.wall_nanos as f64 / 1e6
        );
    }

    // -- the exact probe: same cluster and workload, reduced client
    // count, advanced raw (no controller) until the wall budget runs out.
    let probe_clients = expected_clients.min(EXACT_PROBE_CLIENTS) as u32;
    let probe = Scenario::million_clients(s)
        .client_engine(ClientEngine::Exact)
        .trace(marlin_workload::LoadTrace::constant(probe_clients));
    let mut probe_runner = SimRunner::new(&probe);
    assert!(
        !probe_runner.sim().cohort_active(),
        "the probe must run the exact engine"
    );
    let wall = Instant::now();
    let chunk = SECOND / 10;
    let mut virt = 0;
    while wall.elapsed() < EXACT_PROBE_WALL && virt < horizon {
        virt += chunk;
        probe_runner.sim_mut().run_until(virt);
    }
    let exact_wall = wall.elapsed();
    let exact_vpw = virt as f64 / exact_wall.as_secs_f64() / SECOND as f64;
    println!(
        "exact   {probe_clients:>9} clients  {:>11} virt-s covered  {:>6.2}s wall  {:>8.1} virt-s/wall-s",
        virt / SECOND,
        exact_wall.as_secs_f64(),
        exact_vpw,
    );

    let speedup = cohort_vpw / exact_vpw.max(f64::MIN_POSITIVE);
    println!(
        "\ncohort speedup over exact: {speedup:.0}x (lower bound — the probe ran {}x fewer clients)",
        expected_clients / u64::from(probe_clients.max(1)),
    );

    // -- the perf-trajectory artifact, then the gates.
    let mut bench = BenchReport::new("million_clients", s);
    bench.sections.push(BenchSection {
        name: format!("{}/{}/cohort", report.scenario, report.backend),
        wall_nanos: cohort_wall.as_nanos() as u64,
        virtual_nanos: horizon,
        wall_bounded: false,
        profile: report.telemetry.as_ref().map(|t| t.profile.clone()),
        values: vec![
            ("active_clients".into(), active as f64),
            ("commits".into(), report.metrics.commits as f64),
            ("speedup_vs_exact".into(), speedup),
        ],
    });
    bench.sections.push(BenchSection {
        name: format!("{}/{}/exact-probe", report.scenario, report.backend),
        wall_nanos: exact_wall.as_nanos() as u64,
        virtual_nanos: virt,
        // The probe covers as much virtual time as its wall budget
        // allows: virt here is wall-dependent, only the rate is stable.
        wall_bounded: true,
        profile: None,
        values: vec![("probe_clients".into(), f64::from(probe_clients))],
    });
    bench.maybe_write();
    maybe_write_json(&[report]);
    println!("total wall {:.2}s", started.elapsed().as_secs_f64());

    assert_eq!(
        active, expected_clients,
        "the cohort engine must sustain the preset's full client count"
    );
    assert!(
        active >= 1_000_000 / s,
        "scale {s}: expected >={} active clients, got {active}",
        1_000_000 / s
    );
    assert!(
        cohort_vpw >= MIN_VIRTUAL_PER_WALL,
        "cohort engine too slow: {cohort_vpw:.1} virt-s/wall-s < floor {MIN_VIRTUAL_PER_WALL}"
    );
    assert!(
        speedup >= 10.0,
        "cohort engine must beat the exact engine >=10x, got {speedup:.1}x"
    );
    println!("gates passed: clients sustained, virtual-per-wall floor, >=10x over exact");
}
