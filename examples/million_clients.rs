//! One million closed-loop clients on the cohort scale engine.
//!
//! The exact client engine materializes a generator and an event per
//! client — faithful, but a million clients means a million 10 ms timers
//! and the event queue becomes the workload. The cohort engine
//! (`SimParams::client_engine = Cohort`) advances all clients of a
//! region as one flow-level cohort: every 100 ms it samples a handful of
//! representative transaction walks, converts the closed-loop think/RTT
//! cycle into an aggregate offered rate, and charges stations and
//! metrics with *weighted* bulk operations. Granule heat is tracked by a
//! deterministic count-min sketch instead of a per-granule vector.
//!
//! This example runs the `million_clients` preset end to end and prints
//! the sustained client count, throughput, and the virtual-time speedup
//! the engine achieves over wall-clock.
//!
//! Run with: `cargo run --release --example million_clients`
//! (`MARLIN_SCALE=<n>` shrinks clients and granules by `n`.)

use std::time::Instant;

use marlin::cluster::harness::{run, Scenario, SimRunner};
use marlin::sim::SECOND;
use marlin_bench::scale;

fn main() {
    // Clamp so heat stays sketched even under aggressive MARLIN_SCALE
    // shrinks: the sketch's granule floor (200k/s >= 4_096) needs
    // s <= 48.
    let scenario = Scenario::million_clients(scale().min(40));
    let horizon = scenario.horizon;
    let expected_clients = scenario.trace.peak();
    println!("== million clients — cohort scale engine, {expected_clients} clients ==\n");

    let mut runner = SimRunner::new(&scenario);
    assert!(
        runner.sim().cohort_active(),
        "the preset must activate the cohort engine"
    );
    assert!(
        runner.sim().heat_sketched(),
        "the preset must sketch granule heat"
    );

    let wall = Instant::now();
    let report = run(scenario, &mut runner);
    let wall_s = wall.elapsed().as_secs_f64();
    let virt_s = horizon as f64 / SECOND as f64;

    let active = runner.sim().active_clients();
    println!("active clients    {active:>12}");
    println!("commits           {:>12}", report.metrics.commits);
    println!(
        "throughput        {:>12.0} txn/s",
        report.metrics.commits as f64 / virt_s
    );
    println!(
        "p99 latency       {:>9.1} ms",
        report.metrics.p99_latency as f64 / 1e6
    );
    println!("abort ratio       {:>12.4}", report.metrics.abort_ratio);
    println!(
        "simulated {virt_s:.0}s in {wall_s:.2}s wall — {:.0}x virtual-per-wall",
        virt_s / wall_s
    );

    assert!(report.metrics.commits > 0, "the cohort engine must commit");
    assert_eq!(
        active, expected_clients,
        "the cohort engine must sustain the preset's full client count \
         (a million at scale 1)"
    );
}
