//! `fuzz_swarm`: 64 generated fuzz cases run one after another — the
//! pipeline's seeds-per-second. Many short scenarios over both runners, so
//! constructing a run weighs as much as running it.
//!
//! The cases are the swarm's standard corpus, `generate(0..64, 1)`, and
//! the run's seed only shuffles the order they run in. A corpus generated
//! from the run's seed would make a run's cost a property of its seed:
//! windows of 64 seeds differ by 60 % in cases per second, and one
//! overloaded case that is a third of the corpus's time swings by 28 %
//! with its scenario seed alone.

use crate::catalogue::MetricSet;
use crate::measure::{Ctx, Iteration, Outcome, Pass, Passes, Schedule};
use crate::span::Recorder;
use crate::timed::{harness_metrics, SharedRecorder, TimedPolicy, TimedRunner};
use marlin::autoscaler::Observation;
use marlin::cluster::harness::{run_with_series, LocalRunner, Runner, SimRunner};
use marlin::fuzz::{generate, report_digest, run_case, FuzzCase, RunnerKind};
use marlin::sim::DetRng;
use marlin::telemetry::MetricsSeries;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

const CASES: u64 = 64;
/// Cases the warm-up runs. A full iteration takes over ten seconds, so
/// the warm-up only touches both runners' code, not every case.
const WARM_UP_CASES: usize = 8;
/// Cases re-run after the iterations to confirm their digests repeat.
const RERUN: usize = 4;

/// The corpus's case numbers in the order this run takes them.
fn order(seed: u64) -> Vec<u64> {
    let mut rng = DetRng::seed(seed);
    let mut order: Vec<u64> = (0..CASES).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.range(0, i as u64 + 1) as usize);
    }
    order
}

/// Build every case's inputs and runner without running it: what a fuzz
/// case pays before its first simulated event.
fn set_up(order: &[u64]) -> f64 {
    let start = Instant::now();
    for &seed in order {
        let case = generate(seed, 1);
        let scenario = case.build_scenario();
        match case.runner {
            RunnerKind::Sim => drop(std::hint::black_box(SimRunner::new(&scenario))),
            RunnerKind::Local => drop(std::hint::black_box(LocalRunner::new(&scenario))),
        }
    }
    start.elapsed().as_secs_f64()
}

/// Run `order`'s cases. Their digests must repeat only when `order` is
/// the whole corpus; the warm-up runs a part. Every violation `run_case`
/// reports (runner invariants and its built-in oracle) is a failed case.
fn iterate_untraced(order: &[u64], setup_s: f64, out: &mut Outcome) -> Iteration<Vec<u64>> {
    let start = Instant::now();
    let mut digests = Vec::with_capacity(order.len());
    for &seed in order {
        let outcome = run_case(&generate(seed, 1), None);
        digests.push(outcome.digest);
        for v in outcome.violations {
            out.failed += 1;
            out.fail(format!("case {seed}: {v}"));
        }
    }
    Iteration {
        setup_s,
        wall_s: start.elapsed().as_secs_f64(),
        repeats: (order.len() as u64 == CASES).then_some(digests),
        layers: None,
        recorder: None,
        last_observation: None,
    }
}

/// `run_case` taken apart, with a span around each step. It collects the
/// `LocalRunner`'s invariant violations only: `run_case`'s built-in oracle
/// is private, and it judges a report whose digest the untraced iterations
/// must reproduce, so its verdict is theirs.
fn traced_case(
    case: &FuzzCase,
    rec: &SharedRecorder,
    violations: &mut Vec<String>,
    last_observation: &mut Option<Observation>,
) -> u64 {
    let mut scenario = rec
        .borrow_mut()
        .span("fuzz.build_scenario", true, || case.build_scenario());
    scenario.policy = scenario
        .policy
        .take()
        .map(|p| TimedPolicy::wrap(p, rec.clone()));
    let span = match case.runner {
        RunnerKind::Sim => "fuzz.run_case_sim",
        RunnerKind::Local => "fuzz.run_case_local",
    };
    rec.borrow_mut().enter(span, true);
    let (mut sim, mut local) = (None, None);
    let runner: &mut dyn Runner = match case.runner {
        RunnerKind::Sim => sim.insert(SimRunner::new(&scenario)),
        RunnerKind::Local => local.insert(LocalRunner::new(&scenario)),
    };
    let mut timed = TimedRunner::new(runner, rec.clone());
    rec.borrow_mut().enter("cluster.harness.run", true);
    let report = run_with_series(scenario, &mut timed, &mut MetricsSeries::disabled());
    rec.borrow_mut().exit();
    *last_observation = timed.last_observation.take().or(last_observation.take());
    drop(timed);
    let digest = rec
        .borrow_mut()
        .span("cluster.report.to_json_digest", true, || {
            report_digest(&report)
        });
    rec.borrow_mut().exit();
    if let Some(local) = &local {
        violations.extend(
            local
                .violations()
                .iter()
                .map(|v| format!("case {}: {v}", case.seed)),
        );
    }
    digest
}

fn iterate_traced(order: &[u64], setup_s: f64, out: &mut Outcome) -> Iteration<Vec<u64>> {
    let rec: SharedRecorder = Rc::new(RefCell::new(Recorder::new(true)));
    let start = Instant::now();
    let mut digests = Vec::with_capacity(order.len());
    let mut violations = Vec::new();
    let mut last_observation = None;
    let (mut sim_cases, mut local_cases) = (0u64, 0u64);
    for &seed in order {
        rec.borrow_mut().set_op(seed);
        let case = rec
            .borrow_mut()
            .span("fuzz.generate", true, || generate(seed, 1));
        match case.runner {
            RunnerKind::Sim => sim_cases += 1,
            RunnerKind::Local => local_cases += 1,
        }
        digests.push(traced_case(
            &case,
            &rec,
            &mut violations,
            &mut last_observation,
        ));
    }
    let wall_s = start.elapsed().as_secs_f64();
    let rec = Rc::try_unwrap(rec)
        .ok()
        .expect("every case dropped its runner and policy")
        .into_inner();

    let mut set = MetricSet::default();
    let secs = |name: &str| rec.totals(name).busy_ns as f64 / 1e9;
    for step in [
        "generate",
        "build_scenario",
        "run_case_sim",
        "run_case_local",
    ] {
        set.set(&format!("fuzz.{step}_s"), secs(&format!("fuzz.{step}")));
    }
    set.set("fuzz.cases_sim", sim_cases as f64);
    set.set("fuzz.cases_local", local_cases as f64);
    harness_metrics(&rec, &mut set);
    for v in violations {
        out.failed += 1;
        out.fail(v);
    }
    Iteration {
        setup_s,
        wall_s,
        repeats: Some(digests),
        layers: Some(set),
        recorder: Some(rec),
        last_observation,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut passes = Passes::new();
    let mut schedule = Schedule::new(ctx);
    let order = order(ctx.seed);
    while let Some(pass) = schedule.next() {
        let setup_s = set_up(&order);
        let it = match pass {
            Pass::WarmUp => iterate_untraced(&order[..WARM_UP_CASES], setup_s, &mut out),
            Pass::Untraced => iterate_untraced(&order, setup_s, &mut out),
            Pass::Traced => iterate_traced(&order, setup_s, &mut out),
        };
        passes.record(pass, it, &mut out);
    }
    passes.times.top_up_setups(|| set_up(&order));

    let digests = passes.finish(ctx, |_| CASES, &mut out);
    // Every iteration's violations, `run_case`'s oracle included.
    out.values.set("fuzz.violations", out.failed as f64);
    for (&seed, &digest) in order.iter().zip(&digests).take(RERUN) {
        let again = run_case(&generate(seed, 1), None).digest;
        out.check(again == digest, || {
            format!("case {seed} re-ran to digest {again:016x}, not {digest:016x}")
        });
    }
    // Folded in case order, so the same for every run order.
    let mut by_case: Vec<(u64, u64)> = order.iter().copied().zip(digests).collect();
    by_case.sort_unstable();
    let combined = by_case.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, (_, d)| {
        (h ^ d).wrapping_mul(0x0000_0100_0000_01B3)
    });
    out.notes.push(format!(
        "{CASES} cases, corpus digest {combined:016x} whatever the seed, identical on every iteration; first {RERUN} cases re-ran to the same digests"
    ));
    out
}
