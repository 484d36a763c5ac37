//! Pins on the deterministic scenario fuzzer (`marlin::fuzz`).
//!
//! Three promises the swarm workflow rests on, each pinned end to end:
//!
//! 1. **Replayability from a seed** — the same seed generates a
//!    byte-identical scenario (repro serialization and scenario
//!    manifest) and a bit-identical decision-log digest across runs.
//! 2. **Shrinking converges** — a seeded case that violates a planted
//!    invariant shrinks to a minimal schedule (≤ the pinned event
//!    count) that still violates it.
//! 3. **Repro artifacts replay exactly** — parsing a failure's repro
//!    artifact and re-running it reproduces the identical `RunReport`
//!    digest the shrinker recorded.

use marlin::cluster::harness::{run, SimRunner};
use marlin::cluster::params::ClientEngine;
use marlin::fuzz::{
    fuzz_seed, generate, report_digest, run_case, FuzzCase, FuzzConfig, FuzzEvent, RunnerKind,
};

/// Everything at MARLIN_SCALE=20-equivalent so the whole file stays fast.
const SCALE: u64 = 20;

fn quick_cfg() -> FuzzConfig<'static> {
    FuzzConfig {
        scale: SCALE,
        shrink_budget: 300,
        oracle: None,
    }
}

/// Promise 1: seed → scenario is a pure function, and the run digest is
/// bit-stable. Covers both runners so the local path (real
/// reconfiguration transactions) is pinned too.
#[test]
fn same_seed_generates_identical_scenario_and_decision_log() {
    let cfg = quick_cfg();
    let mut runners_seen = (false, false);
    let mut checked = 0;
    for seed in 0..60 {
        let a = generate(seed, SCALE);
        let b = generate(seed, SCALE);
        // Byte-identical generated scenario: the repro text and the
        // harness manifest both serialize every choice.
        assert_eq!(a.to_repro(), b.to_repro(), "seed {seed}");
        assert_eq!(
            a.build_scenario().manifest_json(),
            b.build_scenario().manifest_json(),
            "seed {seed}"
        );
        // Bit-identical decision log: run a sample of seeds twice and
        // compare stripped-report digests (covering both runners).
        let run_it = match a.runner {
            RunnerKind::Local if !runners_seen.0 => {
                runners_seen.0 = true;
                true
            }
            RunnerKind::Sim if !runners_seen.1 => {
                runners_seen.1 = true;
                true
            }
            _ => checked < 4,
        };
        if run_it {
            checked += 1;
            let x = fuzz_seed(seed, &cfg);
            let y = fuzz_seed(seed, &cfg);
            assert_eq!(x.digest, y.digest, "seed {seed} digest unstable");
        }
    }
    assert!(
        runners_seen.0 && runners_seen.1,
        "sweep must exercise both runners"
    );
}

/// Promise 2: a known-violation case shrinks to a minimal schedule.
/// The planted invariant trips whenever a crash and a scripted add
/// coexist in the schedule — so the minimal still-failing case carries
/// exactly those two events, and the pin allows a small margin.
#[test]
fn planted_violation_shrinks_to_minimal_schedule() {
    let trips = |case: &FuzzCase| {
        let has = |f: fn(&FuzzEvent) -> bool| case.events.iter().any(|e| f(&e.event));
        has(|e| matches!(e, FuzzEvent::Crash { .. }))
            && has(|e| matches!(e, FuzzEvent::AddNodes { .. }))
    };
    let oracle = move |case: &FuzzCase, _: &marlin::cluster::RunReport| -> Vec<String> {
        if trips(case) {
            vec!["planted: crash+add coexist".to_string()]
        } else {
            Vec::new()
        }
    };
    let cfg = FuzzConfig {
        scale: SCALE,
        shrink_budget: 500,
        oracle: Some(&oracle),
    };
    // Deterministically search the low seeds for a qualifying case with
    // a busy schedule, so shrinking has real work to do.
    let seed = (0..500)
        .find(|&s| {
            let c = generate(s, SCALE);
            trips(&c) && c.events.len() >= 4
        })
        .expect("some low seed has crash+add among >= 4 events");
    let outcome = fuzz_seed(seed, &cfg);
    let failure = outcome.failure.expect("planted invariant must fire");
    assert!(
        failure.shrunk.events.len() <= 10,
        "shrunk case still has {} events",
        failure.shrunk.events.len()
    );
    // The pass structure actually reaches the true minimum: exactly the
    // crash and the add survive.
    assert_eq!(failure.shrunk.events.len(), 2, "crash + add only");
    assert!(trips(&failure.shrunk), "shrunk case still violates");
}

/// Planted-divergence self-test for the digest oracle: it only catches
/// an engine change if a *genuine* engine divergence moves the digest.
/// Run a generated sim case on the cohort engine and check the digest
/// separates from the exact run the fuzzer makes.
#[test]
fn digest_oracle_detects_a_planted_engine_divergence() {
    let seed = (0..200)
        .find(|&s| generate(s, SCALE).runner == RunnerKind::Sim)
        .expect("some low seed runs on the simulator");
    let case = generate(seed, SCALE);
    let digest_with = |engine: ClientEngine| {
        let scenario = case.build_scenario().client_engine(engine);
        let mut runner = SimRunner::new(&scenario);
        report_digest(&run(scenario, &mut runner))
    };
    assert_ne!(
        digest_with(ClientEngine::Exact),
        digest_with(ClientEngine::Cohort),
        "seed {seed}: a real engine divergence must move the digest, or the oracle is blind"
    );
}

/// Promise 3: a repro artifact replays to the identical report digest.
#[test]
fn repro_artifact_replays_to_identical_digest() {
    // Any schedule event trips the planted oracle, so every seeded case
    // with events yields a failure carrying a repro artifact.
    let oracle = |case: &FuzzCase, _: &marlin::cluster::RunReport| -> Vec<String> {
        if case.events.is_empty() {
            Vec::new()
        } else {
            vec!["planted: schedule non-empty".to_string()]
        }
    };
    let cfg = FuzzConfig {
        scale: SCALE,
        shrink_budget: 300,
        oracle: Some(&oracle),
    };
    let seed = (0..200)
        .find(|&s| !generate(s, SCALE).events.is_empty())
        .expect("some low seed has events");
    let failure = fuzz_seed(seed, &cfg).failure.expect("oracle fired");

    // Write the artifact out and read it back through the same path the
    // `fuzz_swarm replay` subcommand uses.
    let path = std::env::temp_dir().join(format!("marlin_fuzz_repro_{seed}.txt"));
    std::fs::write(&path, &failure.repro).expect("write repro");
    let text = std::fs::read_to_string(&path).expect("read repro");
    std::fs::remove_file(&path).ok();

    let replayed = FuzzCase::from_repro(&text).expect("repro parses");
    assert_eq!(replayed, failure.shrunk, "artifact round-trips the case");
    let rerun = run_case(&replayed, cfg.oracle);
    assert_eq!(
        rerun.digest, failure.digest,
        "replay must reproduce the identical report digest"
    );
    assert!(
        !rerun.violations.is_empty(),
        "replay must reproduce the violation"
    );
}

/// The standard corpus (the `fuzz_swarm` example's seeds 1000..1064 at
/// `MARLIN_SCALE=10`) runs clean through `run_case`, whose simulator arm
/// checks that every granule ends the run on a live node. A migration
/// queued before a later drain released its destination must not land
/// a granule on the released node.
#[test]
fn standard_corpus_leaves_every_granule_on_a_live_node() {
    let failing: Vec<(u64, Vec<String>)> = (1_000..1_064)
        .map(|seed| (seed, run_case(&generate(seed, 10), None).violations))
        .filter(|(_, violations)| !violations.is_empty())
        .collect();
    assert!(failing.is_empty(), "{failing:?}");
}
