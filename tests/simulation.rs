//! Cross-crate checks on the simulated evaluation testbed, driven
//! through the unified harness: conservation laws, determinism, and the
//! headline comparative orderings at smoke scale. Every §6 claim at the
//! paper's presets is one row of `marlin_bench::claims::CLAIMS`, whose
//! directions `crates/bench/tests/paper_claims.rs` asserts.

use marlin::autoscaler::ScaleAction;
use marlin::cluster::harness::{run, MetricsSnapshot, Scenario, SimRunner};
use marlin::cluster::params::CoordKind;
use marlin::cluster::sim::Workload;
use marlin::sim::SECOND;
use marlin::workload::LoadTrace;

fn scale_out(kind: CoordKind) -> Scenario {
    Scenario::new("smoke-so4-8")
        .backend(kind)
        .workload(Workload::ycsb(4_000))
        .trace(LoadTrace::constant(80))
        .initial_nodes(4)
        .threads_per_node(8)
        .duration(25 * SECOND)
        .action(2 * SECOND, ScaleAction::add(4))
}

fn report_and_owners(kind: CoordKind) -> (MetricsSnapshot, Vec<u32>) {
    let scenario = scale_out(kind);
    let mut runner = SimRunner::new(&scenario);
    let report = run(scenario, &mut runner);
    (report.metrics, runner.sim().owners())
}

/// Granules are conserved: every granule has exactly one owner at the end
/// and the per-node distribution is balanced after the scale-out.
#[test]
fn granules_conserved_and_balanced() {
    for kind in CoordKind::all() {
        let (metrics, owners) = report_and_owners(kind);
        assert_eq!(owners.len(), 4_000, "{}", kind.name());
        for n in 0..8u32 {
            let c = owners.iter().filter(|&&o| o == n).count();
            assert!(
                (400..=600).contains(&c),
                "{}: node {n} owns {c} granules",
                kind.name()
            );
        }
        // Every planned migration committed exactly once.
        assert_eq!(metrics.migrations, 2_000, "{}", kind.name());
    }
}

/// The same scenario and seed yield bit-identical results for every
/// backend.
#[test]
fn simulation_is_deterministic() {
    for kind in CoordKind::all() {
        let (a, _) = report_and_owners(kind);
        let (b, _) = report_and_owners(kind);
        assert_eq!(a.commits, b.commits, "{}", kind.name());
        assert_eq!(
            a.migration_duration,
            b.migration_duration,
            "{}",
            kind.name()
        );
        assert_eq!(a.cost_per_mtxn, b.cost_per_mtxn, "{}", kind.name());
    }
}

/// The headline ordering at smoke scale: Marlin has zero Meta Cost and
/// the lowest cost per transaction of all four systems.
#[test]
fn marlin_is_cheapest_of_all_four() {
    let results: Vec<_> = CoordKind::all()
        .into_iter()
        .map(|k| (k, report_and_owners(k).0))
        .collect();
    let (_, marlin) = &results[0];
    assert_eq!(marlin.meta_cost, 0.0);
    for (kind, r) in &results[1..] {
        assert!(
            r.meta_cost > 0.0,
            "{} must pay for its service",
            kind.name()
        );
        assert!(
            marlin.cost_per_mtxn < r.cost_per_mtxn,
            "Marlin ${} vs {} ${}",
            marlin.cost_per_mtxn,
            kind.name(),
            r.cost_per_mtxn
        );
    }
}

/// Throughput roughly doubles across the scale-out (the capacity-relief
/// shape of Figure 9): post-reconfiguration rate exceeds the overloaded
/// pre-reconfiguration rate.
#[test]
fn scale_out_relieves_the_overloaded_cluster() {
    // Enough clients to saturate the initial 4 nodes.
    let scenario = scale_out(CoordKind::Marlin)
        .trace(LoadTrace::constant(400))
        .duration(30 * SECOND);
    let mut runner = SimRunner::new(&scenario);
    let _report = run(scenario, &mut runner);
    let pre = runner.sim().metrics.user_commits.rate_at(SECOND);
    let post = runner.sim().metrics.user_commits.rate_at(25 * SECOND);
    assert!(
        post > pre * 1.2,
        "scale-out must lift throughput: pre {pre:.0} tps post {post:.0} tps"
    );
}

/// Geo mode keeps clients region-local: latency stays intra-region even
/// though the cluster spans four regions.
#[test]
fn geo_clients_stay_local() {
    let scenario = scale_out(CoordKind::Marlin).geo().duration(20 * SECOND);
    let mut runner = SimRunner::new(&scenario);
    let report = run(scenario, &mut runner);
    // 16 requests at intra-region RTTs ≈ tens of ms; a cross-region txn
    // would cost seconds.
    assert!(
        report.metrics.mean_latency < 200.0 * 1e6,
        "geo txn latency must stay intra-region, got {:.1}ms",
        report.metrics.mean_latency / 1e6
    );
    assert!(report.metrics.commits > 1_000);
}

/// The Figure 15 contention knee through the harness: Marlin's
/// membership latency is ZK-comparable at low node counts and collapses
/// at high counts.
#[test]
fn membership_contention_knee() {
    let stress = |kind, members| {
        let scenario = Scenario::membership(kind, members, 15 * SECOND, 50 * SECOND);
        let mut runner = SimRunner::new(&scenario);
        run(scenario, &mut runner).metrics
    };
    let small = stress(CoordKind::Marlin, 20);
    let large = stress(CoordKind::Marlin, 640);
    let zk = stress(CoordKind::ZkSmall, 20);
    assert!(
        small.membership_mean_latency < zk.membership_mean_latency * 3.0,
        "low contention: Marlin {}ns vs ZK {}ns",
        small.membership_mean_latency,
        zk.membership_mean_latency
    );
    assert!(
        large.membership_mean_latency > small.membership_mean_latency * 10.0,
        "high contention must degrade: {} vs {}",
        large.membership_mean_latency,
        small.membership_mean_latency
    );
}

/// The external baselines' pricing, pinned: the report digest of three
/// runs per service (a 2→4→3-node scale-out/in, a 64-member membership
/// stress, and `geo_autoscale` at 2 000 granules). Every service write's
/// stage queueing, jitter draw, commit round and client round trips
/// feeds these bytes, so any drift in how S-ZK, L-ZK or FDB price a
/// write fails here.
#[test]
fn baseline_pricing_digests_are_pinned() {
    use marlin::common::NodeId;
    use marlin::fuzz::report_digest;
    let digest = |scenario: Scenario| {
        let mut runner = SimRunner::new(&scenario);
        report_digest(&run(scenario, &mut runner))
    };
    let scale_out_in = |kind| {
        Scenario::new("pin-so2-4-3")
            .backend(kind)
            .workload(Workload::ycsb(2_000))
            .trace(LoadTrace::constant(60))
            .initial_nodes(2)
            .threads_per_node(8)
            .duration(12 * SECOND)
            .action(2 * SECOND, ScaleAction::add(2))
            .action(
                7 * SECOND,
                ScaleAction::RemoveNodes {
                    victims: vec![NodeId(3)],
                },
            )
    };
    let pins: [(CoordKind, [u64; 3]); 3] = [
        (
            CoordKind::ZkSmall,
            [0x493553095a6f770a, 0x119464c85bd8194d, 0x5948a25ffe16f99e],
        ),
        (
            CoordKind::ZkLarge,
            [0xc13c3a2e7712a0b1, 0xb35841a0ce0992b4, 0xf667ab0ab7ea6855],
        ),
        (
            CoordKind::Fdb,
            [0xbe5620532f1b674b, 0x18b89f5d16c40949, 0x78a419a6a7be5cd4],
        ),
    ];
    for (kind, want) in pins {
        let got = [
            digest(scale_out_in(kind)),
            digest(Scenario::membership(kind, 64, SECOND, 10 * SECOND)),
            digest(Scenario::geo_autoscale(kind, 2_000)),
        ];
        assert_eq!(got, want, "{}: {got:#018x?}", kind.name());
    }
}
