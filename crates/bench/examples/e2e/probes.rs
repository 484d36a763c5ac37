//! Probes: fixed-count loops over the public primitives under the
//! workloads. They give a layer its cost per call. A probe does not
//! depend on the workload (the planner probe excepted: it plans on the
//! workload's own last observation), so each runs once, after the traced
//! workload whose `ops_per_s` or latency it should move.
//!
//! Sizes mirror what the workloads do: 200 k keys and θ = 0.9 as in
//! `sim_cohort_million`, 4 096 granules with 512 per node as in
//! `local_commit_mix`.

use crate::catalogue::MetricSet;
use crate::stats;
use bytes::Bytes;
use marlin::autoscaler::{Observation, RebalanceConfig, RebalancePlanner};
use marlin::cluster::sim::{CpuStation, PerRequestStation};
use marlin::common::{GranuleId, KeyRange, LogId, Lsn, NodeId, TableId, TxnId};
use marlin::core::drivers::{CommitDriver, Input, Participant, Updates};
use marlin::core::{GRecord, GTablePartition, LocalCluster, LsnTracker, MarlinNode, OwnershipSwap};
use marlin::engine::{LockMode, LockTable, LockTarget};
use marlin::sim::{ActorId, DetRng, EventQueue, HeatTracker, MICROSECOND, MILLISECOND, SECOND};
use marlin::storage::SharedLog;
use marlin::telemetry::LatencyHist;
use marlin::workload::{YcsbConfig, YcsbGenerator, ZipfSampler};
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per probe; the reported cost is their median.
const BATCHES: u64 = 5;

const KEYS: u64 = 200_000;
const THETA: f64 = 0.9;
const GRANULES: u64 = 4_096;
const OWNED: u64 = 512;
const TABLE: TableId = TableId(0);

/// Median nanoseconds per call of `f` over [`BATCHES`] batches that
/// together make `calls` calls.
fn ns_per_call(calls: u64, mut f: impl FnMut()) -> f64 {
    let per_batch = (calls / BATCHES).max(1);
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            start.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    stats::median(&batches)
}

/// A fixed table of pseudo-random values below `bound`, so a probe's
/// loop pays an array read, not a generator.
fn table(seed: u64, bound: u64) -> Vec<u64> {
    let mut rng = DetRng::seed(seed);
    (0..4_096).map(|_| rng.range(0, bound)).collect()
}

fn swap(g: u64) -> OwnershipSwap {
    OwnershipSwap {
        table: TABLE,
        granule: GranuleId(g),
        range: KeyRange::new(g * 64, (g + 1) * 64),
        old: NodeId(0),
        new: NodeId(1),
    }
}

// Station load: 50 µs of work every 20 µs on 4 workers, 62 % utilization.
const SERVICE: u64 = 50 * MICROSECOND;
const GAP: u64 = 20 * MICROSECOND;

fn analytic_station(set: &mut MetricSet) {
    let mut analytic = CpuStation::new(4);
    let mut at = 0;
    set.set(
        "cluster.station.analytic_charge_ns",
        ns_per_call(1_000_000, || {
            at += GAP;
            black_box(analytic.charge(at, SERVICE));
        }),
    );
}

fn per_request_station(set: &mut MetricSet) {
    // As in the simulator, the event clock moves once per transaction
    // and its 16 requests arrive at or after it.
    let mut per_request = PerRequestStation::new(4);
    let (mut at, mut now, mut n) = (0, 0, 0u64);
    set.set(
        "cluster.station.per_request_charge_ns",
        ns_per_call(1_000_000, || {
            at += GAP;
            if n % 16 == 0 {
                now = at;
            }
            n += 1;
            black_box(per_request.charge(now, at, SERVICE));
        }),
    );
    set.set(
        "cluster.station.per_request_rho_windowed_ns",
        ns_per_call(1_000_000, || {
            black_box(per_request.rho_windowed(black_box(at), 4 * SECOND));
        }),
    );
}

fn queue(set: &mut MetricSet) {
    // Delays inside the calendar ring (≈ 4.3 s of lookahead) and past it.
    for (name, base, spread) in [
        ("sim.queue.schedule_pop_ns", 0, SECOND),
        ("sim.queue.overflow_schedule_pop_ns", 10 * SECOND, SECOND),
    ] {
        let delays = table(1, spread);
        let mut q: EventQueue<u32> = EventQueue::new();
        for (i, d) in delays.iter().take(1_000).enumerate() {
            q.schedule(base + d, ActorId(0), i as u32);
        }
        let mut i = 0usize;
        set.set(
            name,
            ns_per_call(1_000_000, || {
                i = (i + 1) % delays.len();
                q.schedule(base + delays[i], ActorId(0), i as u32);
                black_box(q.pop());
            }),
        );
    }
}

fn sketch(set: &mut MetricSet, zipf: &ZipfSampler) {
    let mut rng = DetRng::seed(2);
    let keys: Vec<usize> = (0..4_096)
        .map(|_| zipf.next_rank(&mut rng) as usize)
        .collect();
    let mut sketched = HeatTracker::new(KEYS as usize, true, 4_096, &mut rng);
    assert!(sketched.is_sketched());
    let mut i = 0usize;
    set.set(
        "sim.sketch.record_ns",
        ns_per_call(1_000_000, || {
            i = (i + 1) % keys.len();
            sketched.record(keys[i], 1);
        }),
    );
    set.set(
        "sim.sketch.hottest_ns",
        ns_per_call(10_000, || {
            black_box(sketched.hottest(64));
        }),
    );
}

/// The exact heat vector, on uniform keys as `sim_scaleout_exact` draws them.
fn exact_heat(set: &mut MetricSet) {
    let keys = table(2, KEYS);
    let mut exact = HeatTracker::new(KEYS as usize, false, 4_096, &mut DetRng::seed(2));
    assert!(!exact.is_sketched());
    let mut i = 0usize;
    set.set(
        "sim.sketch.record_exact_ns",
        ns_per_call(1_000_000, || {
            i = (i + 1) % keys.len();
            exact.record(keys[i] as usize, 1);
        }),
    );
}

fn hist(set: &mut MetricSet) {
    let values = table(3, 200 * MILLISECOND);
    let mut h = LatencyHist::new();
    let mut i = 0usize;
    set.set(
        "telemetry.hist.record_n_ns",
        ns_per_call(1_000_000, || {
            i = (i + 1) % values.len();
            h.record_n(values[i], 125);
        }),
    );
    assert!(!h.is_exact(), "the probe measures the bucketed histogram");
    let mut merged = LatencyHist::new();
    set.set(
        "telemetry.hist.merge_ns",
        ns_per_call(100_000, || merged.merge(&h)),
    );
    set.set(
        "telemetry.hist.p99_ns",
        ns_per_call(100_000, || {
            black_box(h.p99());
        }),
    );
}

fn zipf(set: &mut MetricSet) -> ZipfSampler {
    let builds: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            black_box(ZipfSampler::new(KEYS, THETA));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    set.set("workload.zipf.build_ms", stats::median(&builds));
    let zipf = ZipfSampler::new(KEYS, THETA);
    let mut rng = DetRng::seed(4);
    set.set(
        "workload.zipf.next_rank_ns",
        ns_per_call(1_000_000, || {
            black_box(zipf.next_rank(&mut rng));
        }),
    );
    zipf
}

fn ycsb(set: &mut MetricSet) {
    let layout = YcsbConfig::paper_layout(TABLE, GRANULES);
    let mut ycsb = YcsbGenerator::new(YcsbConfig::paper_default(layout), DetRng::seed(5));
    set.set(
        "workload.ycsb.next_txn_ns",
        ns_per_call(500_000, || {
            black_box(ycsb.next_txn());
        }),
    );
}

fn commit_driver(set: &mut MetricSet) {
    let tracker = LsnTracker::new();
    set.set(
        "core.commit_driver.1pc_ns",
        ns_per_call(1_000_000, || {
            let (mut d, _) = CommitDriver::new(
                TxnId(1),
                NodeId(0),
                vec![(
                    Participant::Node(NodeId(0)),
                    Updates::Granule(vec![swap(1)]),
                )],
                &tracker,
            );
            d.on_input(Input::AppendOk {
                log: LogId::GLog(NodeId(0)),
                new_lsn: Lsn(1),
            });
            assert!(d.is_done());
        }),
    );
    set.set(
        "core.commit_driver.2pc_ns",
        ns_per_call(500_000, || {
            let (mut d, _) = CommitDriver::new(
                TxnId(1),
                NodeId(1),
                vec![
                    (
                        Participant::Node(NodeId(0)),
                        Updates::Granule(vec![swap(1)]),
                    ),
                    (
                        Participant::Node(NodeId(1)),
                        Updates::Granule(vec![swap(1)]),
                    ),
                ],
                &tracker,
            );
            d.on_input(Input::AppendOk {
                log: LogId::GLog(NodeId(1)),
                new_lsn: Lsn(1),
            });
            d.on_input(Input::VoteResp {
                from: NodeId(0),
                yes: true,
            });
            assert!(d.is_done());
        }),
    );
}

/// Install records for the [`OWNED`] granules node 0 owns of the table's
/// [`GRANULES`]: a node's GLog carries only its own partition.
fn installs() -> Vec<(Lsn, Bytes)> {
    (0..OWNED)
        .map(|g| {
            let record = GRecord::Install {
                table: TABLE,
                granule: GranuleId(g),
                range: KeyRange::new(g * 64, (g + 1) * 64),
                owner: NodeId(0),
            };
            (Lsn(g + 1), record.encode())
        })
        .collect()
}

fn gtable(set: &mut MetricSet) {
    let mut partition = GTablePartition::new();
    let mut lsn = 0u64;
    set.set(
        "core.gtable.apply_ns",
        ns_per_call(1_000_000, || {
            lsn += 1;
            partition.apply(
                Lsn(lsn),
                &GRecord::OnePhase {
                    txn: TxnId(lsn),
                    swaps: vec![swap(lsn % GRANULES)],
                },
            );
        }),
    );

    let mut node = MarlinNode::new(NodeId(0));
    node.refresh_own_gtable(installs());
    assert_eq!(node.owned_granules().len() as u64, OWNED);
    set.set(
        "core.gtable.owned_by_ns",
        ns_per_call(20_000, || {
            black_box(node.gtable().owned_by(NodeId(0)));
        }),
    );
    // What a commit does after its append: apply a one-record suffix that
    // carries user data, no ownership change.
    let data = Bytes::from_static(&[0xFF; 64]);
    let mut lsn = OWNED;
    set.set(
        "core.node.refresh_own_gtable_ns",
        ns_per_call(2_000, || {
            lsn += 1;
            black_box(node.refresh_own_gtable([(Lsn(lsn), data.clone())]));
        }),
    );
}

fn log(set: &mut MetricSet) {
    let payload = Bytes::from_static(&[7u8; 256]);
    let log = SharedLog::new();
    let mut lsn = Lsn::ZERO;
    set.set(
        "storage.log.append_ok_ns",
        ns_per_call(200_000, || {
            let out = log
                .conditional_append(vec![payload.clone()], lsn)
                .expect("the tracked LSN is current");
            lsn = out.new_lsn;
        }),
    );
    set.set(
        "storage.log.append_conflict_ns",
        ns_per_call(1_000_000, || {
            black_box(
                log.conditional_append(vec![payload.clone()], Lsn::ZERO)
                    .is_err(),
            );
        }),
    );
    let before_last = Lsn(lsn.0 - 1);
    set.set(
        "storage.log.read_after_ns",
        ns_per_call(1_000_000, || {
            black_box(log.read_after(before_last));
        }),
    );
}

fn locks(set: &mut MetricSet) {
    let table = LockTable::new();
    let txn = TxnId(7);
    let per_txn = ns_per_call(100_000, || {
        for key in 0..16u64 {
            table
                .try_lock(
                    txn,
                    LockTarget::Row { table: TABLE, key },
                    LockMode::Exclusive,
                )
                .expect("no other holder");
        }
        table.release_all(txn);
    });
    // Per lock acquired, with its share of the release.
    set.set("engine.locks.acquire_release_ns", per_txn / 16.0);
}

/// One `RecoveryMigrTxn` of a node's 512 granules, after 2 000 writes to
/// them, on a fresh 8 × 4 096 cluster: the call `LocalHarness::crash`
/// wraps, which cannot be timed on its own from outside the harness.
fn recovery(set: &mut MetricSet) {
    use marlin::common::{ClusterConfig, GranuleLayout};
    let mut cluster = LocalCluster::bootstrap(&ClusterConfig {
        initial_nodes: (0..8).map(NodeId).collect(),
        tables: vec![GranuleLayout::uniform(
            TABLE,
            KeyRange::new(0, GRANULES * 64),
            GRANULES,
            64 * 1024,
            1024,
        )],
        ..ClusterConfig::default()
    });
    let victim = NodeId(7);
    let orphans = cluster.node(victim).marlin.owned_granules();
    let value = Bytes::from_static(&[1u8; 64]);
    for i in 0..2_000u64 {
        let granule = orphans[(i % orphans.len() as u64) as usize];
        let key = granule.0 * 64 + i % 64;
        cluster
            .user_txn(victim, TABLE, &[], &[(key, value.clone())])
            .expect("the owner commits");
    }
    cluster.kill(victim);
    let start = Instant::now();
    cluster
        .recovery_migrate(NodeId(0), victim, orphans)
        .expect("recovery commits on the dead node's log");
    set.set(
        "core.runtime.recovery_migrate_s",
        start.elapsed().as_secs_f64(),
    );
}

fn planner(set: &mut MetricSet, observation: &Observation) {
    let planner = RebalancePlanner::new(RebalanceConfig::default());
    set.set(
        "autoscaler.planner.plan_ns",
        ns_per_call(1_000, || {
            black_box(planner.plan(observation));
        }),
    );
}

/// Run the probes that predict for `workload` (README, "what each should
/// move"); `fuzz_swarm` has none. `observation` is the workload's last one.
pub fn run(workload: &str, observation: Option<&Observation>) -> MetricSet {
    let mut set = MetricSet::default();
    match workload {
        "sim_scaleout_exact" => {
            analytic_station(&mut set);
            queue(&mut set);
            exact_heat(&mut set);
        }
        "sim_geo_perrequest" => per_request_station(&mut set),
        "sim_cohort_million" => {
            let zipf = zipf(&mut set);
            sketch(&mut set, &zipf);
            hist(&mut set);
            if let Some(obs) = observation {
                planner(&mut set, obs);
            }
        }
        "local_commit_mix" => {
            ycsb(&mut set);
            commit_driver(&mut set);
            gtable(&mut set);
            log(&mut set);
            locks(&mut set);
            recovery(&mut set);
        }
        _ => {}
    }
    set
}
