//! The three simulator workloads. They share one iteration shape —
//! build the scenario and `SimRunner` from the seed, drive it through the
//! harness's one entry point — and differ in the preset and its checks.

use crate::catalogue::MetricSet;
use crate::measure::{Ctx, Iteration, Outcome, Pass, Passes, Schedule};
use crate::span::Recorder;
use crate::timed::{harness_metrics, SharedRecorder, TimedPolicy, TimedRunner};
use marlin::autoscaler::ScaleAction;
use marlin::cluster::harness::{run_with_series, RunReport, Scenario, SimRunner};
use marlin::cluster::params::{CoordKind, CpuModel};
use marlin::common::RegionId;
use marlin::fuzz::report_digest;
use marlin::sim::SECOND;
use marlin::telemetry::MetricsSeries;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimWorkload {
    ScaleoutExact,
    GeoPerRequest,
    CohortMillion,
}

impl SimWorkload {
    /// The scenario under test. The seed reaches only `Scenario::seed`.
    fn scenario(self, seed: u64) -> Scenario {
        match self {
            SimWorkload::ScaleoutExact => Scenario::ycsb_scale_out(CoordKind::Marlin, 1),
            SimWorkload::GeoPerRequest => {
                Scenario::geo_autoscale(CoordKind::Marlin, 2_000).cpu_model(CpuModel::PerRequest)
            }
            SimWorkload::CohortMillion => Scenario::million_clients(1).duration(1_800 * SECOND),
        }
        .seed(seed)
    }

    /// Checks on the finished run that are particular to the preset.
    fn check(self, report: &RunReport, runner: &SimRunner, out: &mut Outcome) {
        let m = &report.metrics;
        match self {
            SimWorkload::ScaleoutExact => {
                out.check(m.migrations == 100_000, || {
                    format!(
                        "scale-out ended with {} migrations, not 100000",
                        m.migrations
                    )
                });
                out.check(m.live_nodes == 16, || {
                    format!("scale-out ended with {} live nodes, not 16", m.live_nodes)
                });
            }
            SimWorkload::GeoPerRequest => {
                let mut adds = 0;
                for rec in report.actions() {
                    if let Some(ScaleAction::AddNodes { region, .. }) = &rec.action {
                        adds += 1;
                        out.check(*region == Some(RegionId(1)), || {
                            format!("AddNodes at t={} targets {region:?}, not region 1", rec.at)
                        });
                    }
                }
                out.check(adds >= 1, || {
                    "the regional spike provoked no AddNodes".into()
                });
                out.check(m.live_nodes == 8, || {
                    format!("geo run ended with {} live nodes, not 8", m.live_nodes)
                });
            }
            SimWorkload::CohortMillion => {
                let sim = runner.sim();
                out.check(
                    sim.cohort_active() && sim.heat_sketched() && sim.hist_active(),
                    || {
                        format!(
                            "scale engine not fully armed: cohort {} sketch {} hist {}",
                            sim.cohort_active(),
                            sim.heat_sketched(),
                            sim.hist_active()
                        )
                    },
                );
            }
        }
    }
}

/// The modelled, virtual-time results of one iteration: they must repeat
/// exactly for a fixed seed, whatever the host did.
#[derive(Clone, Debug, PartialEq)]
struct Modelled {
    digest: u64,
    commits: u64,
    aborts: u64,
    migrations: u64,
    migration_retries: u64,
    coord_ops_total: u64,
    live_nodes: u32,
    reconfig_duration_s: f64,
    user_tps: f64,
    p99_ms: f64,
    cost_per_mtxn_usd: f64,
}

fn set_up(workload: SimWorkload, seed: u64) -> (Scenario, SimRunner, f64) {
    let start = Instant::now();
    let scenario = workload.scenario(seed);
    let runner = SimRunner::new(&scenario);
    (scenario, runner, start.elapsed().as_secs_f64())
}

/// Run one iteration. `op` is stamped on a traced iteration's spans.
fn iterate(
    workload: SimWorkload,
    seed: u64,
    pass: Pass,
    op: u64,
    out: &mut Outcome,
) -> Iteration<Modelled> {
    let (mut scenario, mut runner, setup_s) = set_up(workload, seed);
    let horizon = scenario.horizon;
    let mut series = MetricsSeries::disabled();
    let traced = pass == Pass::Traced;

    let (mut report, wall_s, rec, last_observation) = if traced {
        let rec: SharedRecorder = Rc::new(RefCell::new(Recorder::new(true)));
        rec.borrow_mut().set_op(op);
        runner.sim_mut().enable_profiling();
        scenario.policy = scenario
            .policy
            .take()
            .map(|p| TimedPolicy::wrap(p, rec.clone()));
        let mut timed = TimedRunner::new(&mut runner, rec.clone());
        let start = Instant::now();
        rec.borrow_mut().enter("cluster.harness.run", true);
        let report = run_with_series(scenario, &mut timed, &mut series);
        rec.borrow_mut().exit();
        let wall_s = start.elapsed().as_secs_f64();
        let last = timed.last_observation.take();
        (report, wall_s, Some(rec), last)
    } else {
        let start = Instant::now();
        let report = run_with_series(scenario, &mut runner, &mut series);
        (report, start.elapsed().as_secs_f64(), None, None)
    };

    // The digest covers the deterministic surface only: the profile the
    // traced iteration switched on is host time.
    report.telemetry = None;
    let digest = match &rec {
        Some(rec) => rec
            .borrow_mut()
            .span("cluster.report.to_json_digest", true, || {
                report_digest(&report)
            }),
        None => report_digest(&report),
    };

    let m = &report.metrics;
    let sim = runner.sim();
    let horizon_s = horizon as f64 / SECOND as f64;
    let modelled = Modelled {
        digest,
        commits: m.commits,
        aborts: sim.metrics.user_aborts.total(),
        migrations: m.migrations,
        migration_retries: sim.metrics.migration_retries,
        coord_ops_total: sim.coordination().total(),
        live_nodes: m.live_nodes,
        reconfig_duration_s: m.migration_duration as f64 / SECOND as f64,
        user_tps: m.commits as f64 / horizon_s,
        p99_ms: m.p99_latency as f64 / 1e6,
        cost_per_mtxn_usd: m.cost_per_mtxn,
    };
    if pass != Pass::WarmUp {
        workload.check(&report, &runner, out);
    }

    let recorder = rec.map(|rec| {
        Rc::try_unwrap(rec)
            .ok()
            .expect("the run dropped its runner and policy")
            .into_inner()
    });
    let layers = recorder
        .as_ref()
        .map(|rec| layer_metrics(rec, &runner, &modelled, horizon_s));
    Iteration {
        setup_s,
        wall_s,
        repeats: Some(modelled),
        layers,
        recorder,
        last_observation,
    }
}

/// Per-layer metrics of one traced iteration: harness spans, the
/// simulator's own profile, and its exported counters.
fn layer_metrics(
    rec: &Recorder,
    runner: &SimRunner,
    modelled: &Modelled,
    horizon_s: f64,
) -> MetricSet {
    let mut set = MetricSet::default();
    harness_metrics(rec, &mut set);

    let profile = runner.sim().profile_summary();
    for event in [
        "client_txn",
        "cohort_step",
        "mig_worker",
        "route_update",
        "warmup",
    ] {
        // A phase the run never entered has no row.
        if let Some(phase) = profile.phase(&format!("event:{event}")) {
            set.set(
                &format!("cluster.sim.event_{event}_s"),
                phase.wall_nanos as f64 / 1e9,
            );
            set.set(
                &format!("cluster.sim.event_{event}_calls"),
                phase.calls as f64,
            );
        }
    }
    if let Some(phase) = profile.phase("plan:build") {
        set.set("cluster.sim.plan_build_s", phase.wall_nanos as f64 / 1e9);
    }
    set.set("cluster.sim.events", profile.events as f64);
    if profile.events > 0 {
        set.set(
            "cluster.sim.ns_per_event",
            profile.total_wall_nanos as f64 / profile.events as f64,
        );
    }
    if profile.total_wall_nanos > 0 {
        set.set(
            "cluster.sim.virt_s_per_wall_s",
            horizon_s / (profile.total_wall_nanos as f64 / 1e9),
        );
    }
    set.set("cluster.sim.queue_depth_mean", profile.queue_depth_mean);
    set.set(
        "cluster.sim.queue_depth_max",
        profile.queue_depth_max as f64,
    );
    set_counts(&mut set, modelled);
    set
}

fn set_counts(set: &mut MetricSet, m: &Modelled) {
    set.set("cluster.sim.commits", m.commits as f64);
    set.set("cluster.sim.aborts", m.aborts as f64);
    let ops = m.commits + m.aborts;
    if ops > 0 {
        set.set("cluster.sim.commit_ratio", m.commits as f64 / ops as f64);
    }
    set.set("cluster.sim.migrations", m.migrations as f64);
    set.set("cluster.sim.migration_retries", m.migration_retries as f64);
    set.set("cluster.sim.coord_ops_total", m.coord_ops_total as f64);
}

/// One S-ZK run of the scale-out scenario: the other side of the paper's
/// Marlin-vs-ZK reconfiguration ratio.
fn szk_reconfig_duration_s(seed: u64, out: &mut Outcome) -> f64 {
    let scenario = Scenario::ycsb_scale_out(CoordKind::ZkSmall, 1).seed(seed);
    let mut runner = SimRunner::new(&scenario);
    let report = run_with_series(scenario, &mut runner, &mut MetricsSeries::disabled());
    out.check(report.metrics.migrations > 0, || {
        "the S-ZK reference run migrated nothing".into()
    });
    report.metrics.migration_duration as f64 / SECOND as f64
}

pub fn run(workload: SimWorkload, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut passes = Passes::new();
    let mut schedule = Schedule::new(ctx);
    while let Some(pass) = schedule.next() {
        let it = iterate(workload, ctx.seed, pass, passes.traced(), &mut out);
        passes.record(pass, it, &mut out);
    }
    passes.times.top_up_setups(|| set_up(workload, ctx.seed).2);

    let modelled = passes.finish(ctx, |m: &Modelled| m.commits + m.aborts, &mut out);
    if workload == SimWorkload::ScaleoutExact {
        out.values
            .set("virt.reconfig_duration_s", modelled.reconfig_duration_s);
    }
    out.values.set("virt.user_tps", modelled.user_tps);
    out.values.set("virt.p99_ms", modelled.p99_ms);
    out.values
        .set("virt.cost_per_mtxn_usd", modelled.cost_per_mtxn_usd);
    set_counts(&mut out.values, &modelled);
    out.notes.push(format!(
        "report digest {:016x}, identical on every iteration; {} simulated aborts are modelled outcomes, not failed operations",
        modelled.digest, modelled.aborts
    ));
    if ctx.trace && workload == SimWorkload::ScaleoutExact {
        let szk = szk_reconfig_duration_s(ctx.seed, &mut out);
        out.values.set("baselines.szk.reconfig_duration_s", szk);
    }
    out
}
