//! The cohort scale engine at §6 scale: approximate, but it must still
//! drive the closed autoscaling loop.
//!
//! `ClientEngine::Cohort` is the simulator's one scale switch: it arms
//! cohort stepping, the histogram latency window and (on large tables)
//! the heat sketch together, at any client count. Cohorts approximate,
//! so no bit-parity with `Exact` is expected; the approximating parts
//! have their error bounds pinned where they live (the latency window in
//! `sim/observe.rs`, the sketch in `tests/sketch_properties.rs`). What
//! is pinned here is behaviour: a cohort run of the spike preset scales
//! out, drains back and follows its load trace.

use marlin::cluster::harness::{run, Scenario, SimRunner};
use marlin::cluster::params::{ClientEngine, CoordKind};
use marlin::sim::SECOND;

/// Run the spike preset on cohorts and check the closed loop still
/// works: the spike provokes a scale-out, the calm drains it, and the
/// run commits.
#[test]
fn forced_cohort_engine_still_drives_the_autoscaling_loop() {
    let scenario =
        Scenario::autoscale_spike(CoordKind::Marlin, 10).client_engine(ClientEngine::Cohort);
    let initial = scenario.initial_nodes;
    let mut runner = SimRunner::new(&scenario);
    assert!(runner.sim().cohort_active() && runner.sim().hist_active());
    let report = run(scenario, &mut runner);
    assert!(report.metrics.commits > 0, "the cohort engine must commit");
    assert!(
        report.peak_nodes() > initial,
        "the spike must provoke a scale-out under cohort load (peak {} vs initial {initial})",
        report.peak_nodes()
    );
    assert_eq!(
        report.metrics.live_nodes, initial,
        "the calm must drain back to the floor"
    );
}

/// The cohort engine tracks trace-driven client changes: active counts
/// follow the trace through the spike and back.
#[test]
fn cohort_engine_follows_the_load_trace() {
    let scenario =
        Scenario::autoscale_spike(CoordKind::Marlin, 10).client_engine(ClientEngine::Cohort);
    let mut runner = SimRunner::new(&scenario);
    // The runner provisions at the trace *peak*; the t=0 step down to
    // the base count is itself a scheduled event, so advance past it.
    runner.sim_mut().run_until(SECOND);
    let base = runner.sim().active_clients();
    runner.sim_mut().run_until(25 * SECOND);
    let at_spike = runner.sim().active_clients();
    runner.sim_mut().run_until(85 * SECOND);
    let after_calm = runner.sim().active_clients();
    assert!(
        at_spike > base,
        "spike must raise active clients ({base} -> {at_spike})"
    );
    assert_eq!(after_calm, base, "calm must restore the base count");
}
