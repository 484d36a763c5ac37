//! Every §6 claim's direction, from the table the `paper_claims` bench
//! prints (`marlin_bench::claims::CLAIMS`) at its CI scale,
//! `MARLIN_SCALE=10`: each row points the way the paper claims, or is a
//! listed finding that still does not.
//!
//! One test per figure. Each (preset, backend) pair runs once per test
//! binary, by whichever thread asks first, and each test asks for its
//! runs from both ends at once, so the test threads share the cost.

use marlin_bench::claims::{run_preset, runs_needed, Claim, Preset, Run, CLAIMS};
use marlin_cluster::params::CoordKind;
use std::sync::{Mutex, OnceLock};

/// Rows whose direction does not reproduce, with the ratio they measure
/// (to two decimals).
const FINDINGS: &[(&str, f64)] = &[
    (
        "fig09/abort_ratio/Marlin@ycsb-so8-16/vs/L-ZK@ycsb-so8-16",
        0.99,
    ),
    ("fig11/commits/Marlin@tpcc-so8-16/vs/S-ZK@tpcc-so8-16", 1.00),
    ("fig12a/migration_duration/Marlin@so2-4/vs/L-ZK@so2-4", 0.99),
    (
        "fig15/membership_latency/Marlin@membership-160/vs/S-ZK@membership-160",
        0.21,
    ),
    (
        "fig15/membership_latency/Marlin@membership-160/vs/L-ZK@membership-160",
        0.21,
    ),
];

type Key = (Preset, CoordKind);

/// The run behind `key` at `MARLIN_SCALE=10`, computed by the first
/// thread that needs it.
fn run(key: Key) -> &'static Run {
    static RUNS: Mutex<Vec<(Key, &'static OnceLock<Run>)>> = Mutex::new(Vec::new());
    let cell = {
        let mut runs = RUNS
            .lock()
            .expect("no test panics while holding the run list");
        match runs.iter().find(|(k, _)| *k == key) {
            Some(&(_, cell)) => cell,
            None => {
                let cell: &'static OnceLock<Run> = Box::leak(Box::default());
                runs.push((key, cell));
                cell
            }
        }
    };
    cell.get_or_init(|| run_preset(key.0, key.1, 10))
}

fn check(figure: &str) {
    let rows: Vec<Claim> = CLAIMS
        .iter()
        .filter(|c| c.figure.starts_with(figure))
        .copied()
        .collect();
    let keys = runs_needed(&rows);
    std::thread::scope(|s| {
        s.spawn(|| keys.iter().rev().for_each(|&k| _ = run(k)));
        keys.iter().for_each(|&k| _ = run(k));
    });
    let mut names = Vec::new();
    for c in &rows {
        let (ours, base) = (run(c.ours), run(c.base));
        let (name, ratio) = (c.name(ours, base), c.ratio(ours, base));
        match FINDINGS.iter().find(|(n, _)| *n == name) {
            Some(&(_, measured)) => {
                assert!(
                    !c.holds(ratio),
                    "{name} reproduces now ({ratio:.2}x): not a finding any more"
                );
                assert_eq!(
                    format!("{ratio:.2}"),
                    format!("{measured:.2}"),
                    "{name} moved"
                );
            }
            None => assert!(
                c.holds(ratio),
                "{name}: {ratio:.2}x is not {:?} (paper {:?})",
                c.direction,
                c.paper
            ),
        }
        names.push(name);
    }
    assert!(!names.is_empty(), "no claim of {figure}");
    for (finding, _) in FINDINGS.iter().filter(|(n, _)| n.starts_with(figure)) {
        assert!(
            names.iter().any(|n| n == finding),
            "finding {finding} names no row"
        );
    }
}

#[test]
fn fig08_migration_throughput_and_duration() {
    check("fig08");
}

#[test]
fn fig09_user_throughput_and_aborts() {
    check("fig09");
}

#[test]
fn fig10_migration_latency_and_cost() {
    check("fig10");
}

#[test]
fn fig11_tpcc_migration_and_user_commits() {
    check("fig11");
}

#[test]
fn fig12_cost_duration_and_scaling_sweep() {
    check("fig12");
}

#[test]
fn fig13_geo_duration_and_cost() {
    check("fig13");
}

#[test]
fn fig14_scale_out_and_in_under_a_burst() {
    check("fig14");
}

#[test]
fn fig15_membership_stress() {
    check("fig15");
}
