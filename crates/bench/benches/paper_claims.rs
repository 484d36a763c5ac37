//! The paper's §6 as one table (`marlin_bench::claims::CLAIMS`), each
//! (preset, backend) pair run once, one `BenchSection` per claim whose
//! `ratio` `bench-diff` gates; then Table 1's five reconfiguration
//! transactions on `LocalCluster`.

use bytes::Bytes;
use marlin_bench::claims::{run_preset, runs_needed, CLAIMS};
use marlin_bench::{banner, scale};
use marlin_cluster::harness::maybe_write_json;
use marlin_cluster::report::Table;
use marlin_common::{ClusterConfig, GranuleId, GranuleLayout, KeyRange, NodeId, TableId};
use marlin_core::LocalCluster;
use marlin_telemetry::{BenchReport, BenchSection};

fn main() {
    banner(
        "Paper claims — §6 Figures 8-15 and Table 1",
        "one row per claim; a ratio above 1 means the row's first run is the better one",
    );
    let keys = runs_needed(CLAIMS);
    let runs: Vec<_> = keys
        .iter()
        .map(|&(p, k)| run_preset(p, k, scale()))
        .collect();
    let run = |key| &runs[keys.iter().position(|&k| k == key).expect("every key ran")];
    let mut bench = BenchReport::new("paper_claims", scale());
    let mut t = Table::new(&["claim", "paper", "reproduced", "verdict"]);
    for c in CLAIMS {
        let (ours, base) = (run(c.ours), run(c.base));
        let ratio = c.ratio(ours, base);
        let verdict = if c.holds(ratio) {
            "holds"
        } else {
            "DOES NOT HOLD"
        };
        let paper = c.paper.map_or("-".into(), |p| format!("{p:.2}x"));
        t.row(&[
            c.name(ours, base),
            paper,
            format!("{ratio:.2}x"),
            verdict.into(),
        ]);
        bench.sections.push(c.section(ours, base));
    }
    print!("{}", t.render());
    table1(&mut bench);
    maybe_write_json(&runs.into_iter().map(|r| r.report).collect::<Vec<_>>());
    bench.maybe_write();
}

/// Table 1: the five reconfiguration transactions, live on the
/// synchronous runtime, with their participant sets.
fn table1(bench: &mut BenchReport) {
    let layout = GranuleLayout::uniform(TableId(0), KeyRange::new(0, 6_400), 64, 65_536, 1024);
    let mut c = LocalCluster::bootstrap(&ClusterConfig {
        initial_nodes: (0..4).map(NodeId).collect(),
        tables: vec![layout],
        ..ClusterConfig::default()
    });
    // Seed a row so recovery has something to restore.
    let payload = Bytes::from_static(b"payload");
    let seed = c.user_txn(NodeId(3), TableId(0), &[], &[(4_900, payload.clone())]);
    seed.expect("seed write commits");
    let g = |a, b| vec![GranuleId(a), GranuleId(b)];
    c.add_node(NodeId(4), "10.0.0.4:5000".into())
        .expect("AddNodeTxn commits");
    c.migrate(NodeId(0), NodeId(4), TableId(0), g(0, 1))
        .expect("MigrationTxn commits");
    c.kill(NodeId(3));
    c.recovery_migrate(NodeId(1), NodeId(3), g(48, 49))
        .expect("RecoveryMigrTxn commits");
    c.delete_node(NodeId(1), NodeId(3))
        .expect("DeleteNodeTxn commits");
    let entries = c.scan_gtable(NodeId(0)).expect("ScanGTableTxn commits");
    // The recovered row survived the failover, and I0–I4 hold.
    let reads = c.user_txn(NodeId(1), TableId(0), &[4_900], &[]);
    assert_eq!(reads.expect("read commits")[0], Some(payload));
    c.assert_invariants();

    let ok = || "committed".to_string();
    let mut t = Table::new(&["transaction", "participants", "result"]);
    for (txn, participants, result) in [
        ("AddNodeTxn(N4)", "SysLog (1PC)", ok()),
        ("MigrationTxn(G0,G1: N0→N4)", "{N0, N4} (2PC)", ok()),
        (
            "RecoveryMigrTxn(G48,G49: N3→N1)",
            "{GLog(N3), N1} (2PC, src dead)",
            ok(),
        ),
        ("DeleteNodeTxn(N3)", "SysLog (1PC)", ok()),
        (
            "ScanGTableTxn",
            "SysLog + all nodes (read-only)",
            format!("{} entries", entries.len()),
        ),
    ] {
        t.row(&[txn.into(), participants.into(), result]);
        let name = format!("table1/{txn}/local-cluster");
        bench.sections.push(BenchSection {
            name,
            ..BenchSection::default()
        });
    }
    print!("\n{}", t.render());
}
