//! Case execution, oracles, and the multi-threaded swarm driver.
//!
//! One fuzz iteration is: [`crate::gen::generate`] a case from a seed,
//! [`run_case`] it through the harness with every invariant armed,
//! and — on a violation — [`crate::shrink::shrink_case`] it down and
//! package a replayable repro artifact. [`swarm`] fans a seed list over
//! OS threads; because every per-seed step is a pure function of the
//! seed, the thread count and interleaving cannot change any result,
//! only the wall-clock time.

use crate::case::{FuzzCase, RunnerKind};
use crate::gen::generate;
use crate::shrink::shrink_case;
use marlin_cluster::harness::{run, LocalRunner, RunReport, SimRunner};

/// A property checked against a finished run: returns one message per
/// violated expectation (empty = pass). Runs in addition to the
/// built-in structural checks and the runner's ownership check: the
/// I2–I4 invariants on the local runner, a live owner for every granule
/// on the simulator.
pub type Oracle = dyn Fn(&FuzzCase, &RunReport) -> Vec<String> + Sync;

/// Knobs for a fuzz run.
#[derive(Clone, Copy)]
pub struct FuzzConfig<'a> {
    /// Cost divisor applied during generation (`MARLIN_SCALE` semantics).
    pub scale: u64,
    /// Maximum scenario re-runs the shrinker may spend per failure.
    pub shrink_budget: u64,
    /// Extra property to check on every run, if any.
    pub oracle: Option<&'a Oracle>,
}

impl Default for FuzzConfig<'_> {
    fn default() -> Self {
        FuzzConfig {
            scale: 1,
            shrink_budget: 400,
            oracle: None,
        }
    }
}

/// Result of executing one case.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// Order-insensitive digest of the (actuation-time-stripped) report.
    pub digest: u64,
    /// Violation messages (invariants + oracle); empty = clean run.
    pub violations: Vec<String>,
}

/// A confirmed, shrunk failure.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Violations observed on the *original* generated case.
    pub violations: Vec<String>,
    /// The minimal still-failing case.
    pub shrunk: FuzzCase,
    /// Replayable artifact for the shrunk case (`fuzz replay` input).
    pub repro: String,
    /// Report digest of the shrunk case's run (replay must match it).
    pub digest: u64,
}

/// Everything the swarm learned about one seed.
#[derive(Clone, Debug)]
pub struct SwarmOutcome {
    /// The seed.
    pub seed: u64,
    /// Digest of the generated case's run.
    pub digest: u64,
    /// The shrunk failure, if the run violated anything.
    pub failure: Option<Failure>,
}

/// FNV-1a over the report JSON with per-decision wall-clock actuation
/// times zeroed — the same strip the determinism tests use, so the
/// digest is identical across machines and runs.
#[must_use]
pub fn report_digest(report: &RunReport) -> u64 {
    let mut stripped = report.clone();
    for record in &mut stripped.log {
        record.actuation_micros = 0;
    }
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in stripped.to_json().bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Structural expectations that must hold for *any* scenario the
/// generator can produce. Deliberately weak — e.g. `live_nodes ≥ 1`
/// rather than an exact count, because scripted removes and crashes
/// legitimately reshape the membership — so a reported violation is a
/// real bug, not an oracle false positive.
fn builtin_oracle(report: &RunReport) -> Vec<String> {
    let mut out = Vec::new();
    let m = &report.metrics;
    if m.live_nodes == 0 {
        out.push("membership emptied: live_nodes == 0 at end of run".to_string());
    }
    if !(0.0..=1.0).contains(&m.abort_ratio) {
        out.push(format!("abort_ratio out of [0,1]: {}", m.abort_ratio));
    }
    if m.mean_latency < 0.0 {
        out.push(format!("negative mean latency: {}", m.mean_latency));
    }
    out
}

/// Execute one case and collect every violation.
#[must_use]
pub fn run_case(case: &FuzzCase, oracle: Option<&Oracle>) -> CaseOutcome {
    let scenario = case.build_scenario();
    let (report, mut violations) = match case.runner {
        RunnerKind::Sim => {
            let mut runner = SimRunner::new(&scenario);
            let report = run(scenario, &mut runner);
            // Every granule ends the run on a live node.
            let live = runner.sim().live_node_ids();
            let owners = runner.sim().owners().into_iter().enumerate();
            let violations: Vec<String> = owners
                .filter(|(_, owner)| !live.contains(owner))
                .map(|(g, owner)| format!("granule {g} ended on released node {owner}"))
                .collect();
            (report, violations)
        }
        RunnerKind::Local => {
            let mut runner = LocalRunner::new(&scenario);
            let report = run(scenario, &mut runner);
            let violations = runner
                .violations()
                .iter()
                .map(std::string::ToString::to_string)
                .collect();
            (report, violations)
        }
    };
    violations.extend(builtin_oracle(&report));
    if let Some(oracle) = oracle {
        violations.extend(oracle(case, &report));
    }
    CaseOutcome {
        digest: report_digest(&report),
        violations,
    }
}

/// Run one seed end to end: generate, execute, and — on violation —
/// shrink and package a repro artifact.
#[must_use]
pub fn fuzz_seed(seed: u64, cfg: &FuzzConfig) -> SwarmOutcome {
    let case = generate(seed, cfg.scale);
    let outcome = run_case(&case, cfg.oracle);
    if outcome.violations.is_empty() {
        return SwarmOutcome {
            seed,
            digest: outcome.digest,
            failure: None,
        };
    }
    let shrunk = shrink_case(
        &case,
        |candidate| !run_case(candidate, cfg.oracle).violations.is_empty(),
        cfg.shrink_budget,
    );
    let digest = run_case(&shrunk.case, cfg.oracle).digest;
    let repro = shrunk.case.to_repro();
    SwarmOutcome {
        seed,
        digest: outcome.digest,
        failure: Some(Failure {
            violations: outcome.violations,
            shrunk: shrunk.case,
            repro,
            digest,
        }),
    }
}

/// Fan `seeds` across OS threads and return one [`SwarmOutcome`] per
/// seed, in input order. Deterministic by construction: each outcome
/// depends only on its seed and `cfg`, so the partitioning is purely a
/// wall-clock optimization.
#[must_use]
pub fn swarm(seeds: &[u64], cfg: &FuzzConfig) -> Vec<SwarmOutcome> {
    if seeds.is_empty() {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .min(seeds.len());
    let chunk = seeds.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || part.iter().map(|&s| fuzz_seed(s, cfg)).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fuzz worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> FuzzConfig<'static> {
        FuzzConfig {
            scale: 20,
            shrink_budget: 50,
            oracle: None,
        }
    }

    #[test]
    fn same_seed_same_digest() {
        let cfg = quick_cfg();
        let a = fuzz_seed(3, &cfg);
        let b = fuzz_seed(3, &cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.failure.is_some(), b.failure.is_some());
    }

    #[test]
    fn swarm_order_matches_seed_order() {
        let cfg = quick_cfg();
        let seeds = [5u64, 1, 9, 2];
        let outcomes = swarm(&seeds, &cfg);
        let got: Vec<u64> = outcomes.iter().map(|o| o.seed).collect();
        assert_eq!(got, seeds);
        // And each slot matches a sequential run of that seed.
        for o in &outcomes {
            assert_eq!(o.digest, fuzz_seed(o.seed, &cfg).digest);
        }
    }

    #[test]
    fn oracle_failures_shrink_and_replay() {
        // Plant an oracle that trips whenever the case carries any
        // schedule event — every failing seed must shrink to one event
        // and its repro must round-trip to the same digest.
        let oracle = |case: &FuzzCase, _: &RunReport| -> Vec<String> {
            if case.events.is_empty() {
                Vec::new()
            } else {
                vec!["planted".to_string()]
            }
        };
        let cfg = FuzzConfig {
            scale: 20,
            shrink_budget: 200,
            oracle: Some(&oracle),
        };
        let seed = (0..100)
            .find(|&s| !generate(s, cfg.scale).events.is_empty())
            .expect("some seed has events");
        let outcome = fuzz_seed(seed, &cfg);
        let failure = outcome.failure.expect("planted oracle fired");
        assert_eq!(failure.shrunk.events.len(), 1);
        let replayed = FuzzCase::from_repro(&failure.repro).expect("repro parses");
        assert_eq!(run_case(&replayed, cfg.oracle).digest, failure.digest);
    }
}
