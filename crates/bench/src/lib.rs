//! Shared plumbing for the benchmark harness.
//!
//! The `paper_claims` bench target prints the paper's §6 as one table,
//! [`claims::CLAIMS`], and Table 1; the other `harness = false` targets
//! in `benches/` cover the controller, the CPU models, predictive scaling,
//! the million-client engine, and (`micro_primitives`) the CPU station,
//! one control tick's `observe` and the telemetry overhead guard.
//!
//! Set `MARLIN_SCALE=<n>` to divide workload sizes by `n` for quick runs
//! (default 1 = the paper's full scale). Set `MARLIN_REPORT_JSON=<path>`
//! and every scenario bench writes its `RunReport`s — including the full
//! controller decision log — to that path as a JSON array. Set
//! `MARLIN_BENCH_JSON=<dir>` and every target additionally drops a
//! `BENCH_<target>.json` perf-trajectory artifact there (wall time,
//! virtual-seconds-per-wall-second, and the sim self-profile per run).

pub mod claims;
pub mod diff;

use marlin_cluster::harness::RunReport;
use marlin_telemetry::{BenchReport, BenchSection};
use std::time::Instant;

/// Workload shrink factor from the environment (1 = full scale).
#[must_use]
pub fn scale() -> u64 {
    std::env::var("MARLIN_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1)
}

/// Print the standard experiment banner.
pub fn banner(id: &str, paper_claim: &str) {
    println!("==============================================================");
    println!("{id}");
    println!("paper: {paper_claim}");
    if scale() != 1 {
        println!(
            "NOTE: running at 1/{} workload scale (MARLIN_SCALE)",
            scale()
        );
    }
    println!("==============================================================");
}

/// Build the `BENCH_<target>.json` perf trajectory from a bench target's
/// finished reports and write it if `MARLIN_BENCH_JSON` is set (silent
/// no-op otherwise). `started` is when the target began — its elapsed
/// wall time is split evenly across sections lacking their own profile
/// (the sim self-profiler, enabled by the same env var, provides exact
/// per-run wall time when present).
pub fn write_perf_trajectory(
    target: &str,
    started: Instant,
    reports: &[RunReport],
) -> Option<String> {
    let mut bench = BenchReport::new(target, scale());
    let elapsed = started.elapsed().as_nanos() as u64;
    let fallback_wall = elapsed / reports.len().max(1) as u64;
    for r in reports {
        let (wall, profile) = match &r.telemetry {
            Some(t) if t.profile.total_wall_nanos > 0 => {
                (t.profile.total_wall_nanos, Some(t.profile.clone()))
            }
            Some(t) => (fallback_wall, Some(t.profile.clone())),
            None => (fallback_wall, None),
        };
        bench.sections.push(BenchSection {
            name: format!("{}/{}/{}", r.scenario, r.backend, r.runner),
            wall_nanos: wall,
            virtual_nanos: r.horizon,
            wall_bounded: false,
            profile,
            values: vec![
                ("commits".into(), r.metrics.commits as f64),
                ("meta_cost".into(), r.metrics.meta_cost),
                (
                    "coord_ops_total".into(),
                    r.metrics.coordination.ops.total() as f64,
                ),
            ],
        });
    }
    bench.maybe_write()
}
