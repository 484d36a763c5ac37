//! The forecasting subsystem end to end: provisioning lead time in the
//! simulator, the predictive policy against its reactive twin, regional
//! composition, and the forecaster's determinism (proptest shim).
//!
//! The headline pin mirrors the predictive presets at test scale: on a
//! diurnal ramp with a real provisioning lead, the identical
//! `Scenario` + seed is run once under `PredictivePolicy` and once under
//! the SLO-armed reactive baseline. The predictive run must order its
//! first scale-out at least one control tick earlier, and its p99 must
//! stay under the SLO ceiling across the run where the reactive run
//! breaches it — react-after-breach structurally eats the whole lead as
//! queue build-up.

use marlin::autoscaler::{LinearTrendForecaster, ScaleAction};
use marlin::cluster::harness::{run, RunReport, Scenario, SimRunner};
use marlin::cluster::params::{CoordKind, CpuModel};
use marlin::cluster::sim::Workload;
use marlin::sim::{Nanos, MILLISECOND, SECOND};
use marlin::workload::LoadTrace;
use proptest::prelude::*;

/// The SLO ceiling of the A/B comparison (the presets' value).
const CEILING: Nanos = 150 * MILLISECOND;

/// The predictive presets' shape at test scale: one diurnal climb
/// (50→560 clients over a 120 s period, the paper presets' 12-level
/// staircase), 4–8 nodes, per-request CPU pricing, and an 8 s
/// provisioning lead. Identical in everything but the policy.
fn diurnal_scenario(predictive: bool) -> Scenario {
    let period = 120 * SECOND;
    let s = Scenario::new(if predictive {
        "forecast-predictive"
    } else {
        "forecast-reactive"
    })
    .backend(CoordKind::Marlin)
    .workload(Workload::ycsb(600))
    .trace(LoadTrace::diurnal(50, 560, period, period, 12))
    .initial_nodes(4)
    .threads_per_node(8)
    .control_interval(2 * SECOND)
    .observe_window(4 * SECOND)
    .duration(60 * SECOND)
    .cpu_model(CpuModel::PerRequest)
    .provision_lead_time(8 * SECOND)
    .seed(42);
    let policy = if predictive {
        s.predictive_policy(4, 8)
    } else {
        s.slo_reactive_policy(4, 8, CEILING)
    };
    s.policy(policy)
}

fn diurnal_report(predictive: bool) -> RunReport {
    let scenario = diurnal_scenario(predictive);
    let mut runner = SimRunner::new(&scenario);
    run(scenario, &mut runner)
}

fn first_add_at(report: &RunReport) -> Nanos {
    report
        .first_action_at(0, |a| matches!(a, ScaleAction::AddNodes { .. }))
        .expect("the ramp must provoke a scale-out")
}

fn max_p99(report: &RunReport) -> Nanos {
    report
        .log
        .iter()
        .map(|r| r.observation.p99_latency)
        .max()
        .unwrap_or(0)
}

/// The acceptance pin: under a provisioning lead on the diurnal ramp,
/// prediction orders capacity at least one control tick before reaction
/// does, and only the reactive run breaches the SLO ceiling.
#[test]
fn predictive_orders_capacity_before_reactive_and_holds_the_slo() {
    let reactive = diurnal_report(false);
    let predictive = diurnal_report(true);

    // Identical scenario but the policy.
    assert_eq!(reactive.seed, predictive.seed);
    assert_eq!(reactive.cpu_model, predictive.cpu_model);
    assert_eq!(reactive.policy.as_deref(), Some("reactive"));
    assert_eq!(predictive.policy.as_deref(), Some("predictive"));

    let tick = 2 * SECOND;
    let (r_add, p_add) = (first_add_at(&reactive), first_add_at(&predictive));
    assert!(
        p_add + tick <= r_add,
        "predictive must order at least one control tick earlier: {p_add} vs {r_add}"
    );

    let (r_p99, p_p99) = (max_p99(&reactive), max_p99(&predictive));
    assert!(
        r_p99 > CEILING,
        "react-after-breach must eat the lead as a breach (max p99 {r_p99})"
    );
    assert!(
        p_p99 <= CEILING,
        "provision-before-demand must hold the SLO (max p99 {p_p99})"
    );
    assert_eq!(predictive.slo_violation_ticks(CEILING), 0);
    assert!(reactive.slo_violation_ticks(CEILING) >= 1);

    // Forecast bookkeeping: the predictive report carries accuracy and
    // per-record forecast samples; the reactive one has neither.
    let accuracy = predictive.forecast.expect("predictive runs are scored");
    assert!(accuracy.samples > 10);
    assert!(
        accuracy.mape.is_finite() && accuracy.mape < 1.0,
        "matured MAPE should be sane: {accuracy:?}"
    );
    assert!(reactive.forecast.is_none());
    assert!(predictive
        .log
        .iter()
        .filter(|r| r.tick > 0)
        .all(|r| !r.forecasts.is_empty()));
    // The JSON artifact carries both surfaces.
    let json = predictive.to_json();
    assert!(json.contains("\"forecast_accuracy\":{"));
    assert!(json.contains("\"forecasts\":[{"));
    assert!(reactive.to_json().contains("\"forecast_accuracy\":null"));

    // In-flight capacity is never bought twice: while orders ride out
    // the provisioning lead the observation reports them as pending, so
    // neither policy can blow through max_nodes re-buying the same
    // shortfall every tick.
    assert!(reactive.peak_nodes() <= 8, "peak {}", reactive.peak_nodes());
    assert!(
        predictive.peak_nodes() <= 8,
        "peak {}",
        predictive.peak_nodes()
    );
}

/// The lead-time model itself: an `AddNodes` actuation joins the
/// membership only after `provision_lead_time`, and the default of 0
/// keeps the historical instant join.
#[test]
fn provision_lead_time_delays_the_join() {
    let scenario = |lead: Nanos| {
        Scenario::new("lead")
            .workload(Workload::ycsb(200))
            .trace(LoadTrace::constant(8))
            .initial_nodes(2)
            .duration(30 * SECOND)
            .provision_lead_time(lead)
            .action(5 * SECOND, ScaleAction::add(2))
    };
    let joined_at = |lead: Nanos| {
        let s = scenario(lead);
        let mut runner = SimRunner::new(&s);
        let report = run(s, &mut runner);
        assert_eq!(report.metrics.live_nodes, 4, "the add lands either way");
        report
            .metrics
            .node_count
            .iter()
            .find(|&&(_, v)| v > 2.0)
            .map(|&(t, _)| t)
            .expect("the join is in the node series")
    };
    assert_eq!(joined_at(0), 5 * SECOND, "default: instant capacity");
    assert_eq!(
        joined_at(10 * SECOND),
        15 * SECOND,
        "the join waits out the provisioning lead"
    );
}

/// Regional composition (`RegionalPolicy` over per-region
/// `PredictivePolicy`s): a demand ramp confined to region 1 must produce
/// region-targeted adds *before* region 1's p99 breaches, and the calm
/// regions must see zero adds.
#[test]
fn regional_predictive_targets_only_the_ramping_region() {
    let scenario = Scenario::predictive_geo(CoordKind::Marlin, 1_600).duration(80 * SECOND);
    let mut runner = SimRunner::new(&scenario);
    let report = run(scenario, &mut runner);

    let adds: Vec<&ScaleAction> = report
        .log
        .iter()
        .filter_map(|r| r.action.as_ref())
        .filter(|a| matches!(a, ScaleAction::AddNodes { .. }))
        .collect();
    assert!(!adds.is_empty(), "the ramp must provoke scale-outs");
    for add in &adds {
        assert!(
            matches!(
                add,
                ScaleAction::AddNodes {
                    region: Some(r),
                    ..
                } if r.0 == 1
            ),
            "every add must target the ramping region: {add:?}"
        );
    }
    // Proactive, not reactive: at every add the ramping region's p99 was
    // still under the SLO ceiling.
    for record in report.log.iter().filter(|r| {
        r.action
            .as_ref()
            .is_some_and(|a| matches!(a, ScaleAction::AddNodes { .. }))
    }) {
        let r1 = record
            .observation
            .regions
            .iter()
            .find(|x| x.region.0 == 1)
            .expect("region 1 digest");
        assert!(
            r1.p99_latency < CEILING,
            "capacity must be ordered before the breach (p99 {} at t={})",
            r1.p99_latency,
            record.at
        );
    }
    // Calm regions end where they started; region 1 grew.
    for region in [0u16, 2, 3] {
        let r = report.metrics.region(region).expect("region breakdown");
        assert_eq!(r.live_nodes, 2, "calm region {region} never scales");
    }
    assert!(report.metrics.region(1).expect("r1").live_nodes > 2);
    // Per-region forecasts ride in the decision log, tagged.
    assert!(report
        .log
        .iter()
        .filter(|r| r.tick > 0)
        .all(|r| r.forecasts.len() == 4));
    assert!(report
        .log
        .iter()
        .flat_map(|r| &r.forecasts)
        .all(|f| f.region.is_some()));
}

// ---------------------------------------------------------------------------
// Forecaster invariant (proptest shim)

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Forecasts are deterministic: the same sample stream yields
    /// bitwise-identical forecasts on every run.
    #[test]
    fn forecasters_are_deterministic_across_runs(
        samples in proptest::collection::vec(1u32..5_000, 8..40),
        lead_s in 1u64..30,
    ) {
        let runs: Vec<Vec<Option<f64>>> = (0..2)
            .map(|_| {
                let mut model = LinearTrendForecaster::new(5);
                let mut out = Vec::new();
                for (i, &s) in samples.iter().enumerate() {
                    model.observe(i as u64 * SECOND, f64::from(s));
                    out.push(model.forecast(lead_s * SECOND));
                }
                out
            })
            .collect();
        // Bitwise comparison (None == None; Some bits equal).
        let bits = |v: &Vec<Option<f64>>| -> Vec<Option<u64>> {
            v.iter().map(|o| o.map(f64::to_bits)).collect()
        };
        prop_assert_eq!(bits(&runs[0]), bits(&runs[1]));
    }
}
