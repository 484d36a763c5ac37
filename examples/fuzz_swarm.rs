//! Deterministic fuzz swarm over the experiment harness.
//!
//! FoundationDB-style simulation testing: every seed expands into a
//! complete randomized scenario — load trace, fault schedule, churn,
//! policy/backend configuration — runs with all invariants armed, and
//! reports a decision-log digest. A violation is automatically shrunk
//! to a minimal case and written out as a replayable repro artifact.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example fuzz_swarm                 # swarm
//! cargo run --release --example fuzz_swarm -- replay <f>   # replay a repro
//! ```
//!
//! Knobs (see `docs/TESTING.md`):
//! - `MARLIN_FUZZ_SEEDS=<n>`  — seeds to run (default 8; CI swarm uses 64)
//! - `MARLIN_FUZZ_REPRO=<dir>` — write `repro_seed_<s>.txt` per failure
//! - `MARLIN_SCALE=<n>`       — divide workload sizes for quick runs
//! - `MARLIN_BENCH_JSON=<dir>` — drop the `BENCH_fuzz_swarm.json` trajectory
//!
//! Prints one digest per seed and a `corpus digest` over all of them.
//! Exits non-zero iff any seed produced a violation.

use marlin::fuzz::{run_case, swarm, FuzzCase, FuzzConfig};
use marlin::telemetry::{BenchReport, BenchSection};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let failed = match args.get(1).map(String::as_str) {
        Some("replay") => {
            let path = args.get(2).unwrap_or_else(|| {
                eprintln!("usage: fuzz_swarm replay <repro-file>");
                std::process::exit(2);
            });
            replay(path)
        }
        Some(other) => {
            eprintln!("unknown subcommand {other:?}; usage: fuzz_swarm [replay <repro-file>]");
            std::process::exit(2);
        }
        None => swarm_main(),
    };
    if failed {
        std::process::exit(1);
    }
}

/// Run the seed swarm; returns whether any seed failed.
fn swarm_main() -> bool {
    let n: u64 = std::env::var("MARLIN_FUZZ_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(8);
    let scale = marlin_bench::scale();
    let cfg = FuzzConfig {
        scale,
        shrink_budget: 400,
        oracle: None,
    };
    // A fixed, offset seed list: stable across runs and disjoint from the
    // low seeds the unit tests pin.
    let seeds: Vec<u64> = (0..n).map(|i| 1_000 + i).collect();
    println!("== fuzz swarm: {n} seeds, scale {scale} ==");
    let started = Instant::now();
    let outcomes = swarm(&seeds, &cfg);
    let elapsed = started.elapsed();

    let repro_dir = std::env::var("MARLIN_FUZZ_REPRO").ok();
    let mut failures = 0u64;
    for o in &outcomes {
        match &o.failure {
            None => println!("seed {:>6}  digest {:016x}  ok", o.seed, o.digest),
            Some(f) => {
                failures += 1;
                println!(
                    "seed {:>6}  digest {:016x}  FAILED ({} violation(s)), shrunk to {} event(s)",
                    o.seed,
                    o.digest,
                    f.violations.len(),
                    f.shrunk.events.len()
                );
                for v in &f.violations {
                    println!("    {v}");
                }
                if let Some(dir) = &repro_dir {
                    let path = format!("{dir}/repro_seed_{}.txt", o.seed);
                    match std::fs::create_dir_all(dir)
                        .and_then(|()| std::fs::write(&path, &f.repro))
                    {
                        Ok(()) => println!("    repro written: {path}"),
                        Err(e) => eprintln!("    could not write repro {path}: {e}"),
                    }
                }
            }
        }
    }
    // One digest for the whole corpus, folded in seed order as the `e2e`
    // benchmark's fuzz workload folds its own, so CI can pin it.
    let mut by_seed: Vec<(u64, u64)> = outcomes.iter().map(|o| (o.seed, o.digest)).collect();
    by_seed.sort_unstable();
    let corpus = by_seed.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, (_, d)| {
        (h ^ d).wrapping_mul(0x0000_0100_0000_01B3)
    });
    println!("corpus digest {corpus:016x}");
    println!(
        "\n{} seed(s), {} failure(s), {:.1}s wall ({:.2} scenarios/s)",
        n,
        failures,
        elapsed.as_secs_f64(),
        n as f64 / elapsed.as_secs_f64().max(1e-9)
    );

    let mut bench = BenchReport::new("fuzz_swarm", scale);
    bench.sections.push(BenchSection {
        name: "swarm".to_string(),
        wall_nanos: elapsed.as_nanos() as u64,
        virtual_nanos: 0,
        wall_bounded: false,
        profile: None,
        values: vec![
            ("seeds".to_string(), n as f64),
            ("failures".to_string(), failures as f64),
            (
                "scenarios_per_sec".to_string(),
                n as f64 / elapsed.as_secs_f64().max(1e-9),
            ),
        ],
    });
    if let Some(path) = bench.maybe_write() {
        println!("perf trajectory: {path}");
    }
    failures > 0
}

/// Replay a repro artifact; returns whether the case still fails.
fn replay(path: &str) -> bool {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let case = FuzzCase::from_repro(&text).unwrap_or_else(|e| {
        eprintln!("malformed repro {path}: {e}");
        std::process::exit(2);
    });
    println!("== replay {path} (seed {}) ==", case.seed);
    let outcome = run_case(&case, None);
    println!("digest {:016x}", outcome.digest);
    if outcome.violations.is_empty() {
        println!("clean: the case no longer violates any invariant");
        false
    } else {
        for v in &outcome.violations {
            println!("VIOLATION: {v}");
        }
        true
    }
}
