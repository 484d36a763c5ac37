//! The paper's §6 as one table of claims.
//!
//! Each comparative claim of the evaluation ("2.3× higher migration
//! throughput than S-ZK", "comparable to ZooKeeper up to 160 nodes") is
//! one [`Claim`] row of [`CLAIMS`]: the figure, the metric, the run the
//! claim is about, the run it is compared against, the paper's ratio and
//! the direction the paper claims. The reproduced ratio is oriented so
//! that above 1 means the claim's own run is the better one: Marlin's,
//! except in the Figure 12(b)/(c) rows comparing one backend at SO8-16
//! with itself at SO1-2.
//!
//! The `paper_claims` bench target prints the table and emits one
//! `BenchSection` per row, so `bench-diff` gates every reproduced ratio;
//! `tests/paper_claims.rs` asserts every row's direction.

use marlin_cluster::harness::{run, MetricsSnapshot, RunReport, Scenario, SimRunner};
use marlin_cluster::params::CoordKind::{self, Fdb, Marlin, ZkLarge as LZk, ZkSmall as SZk};
use marlin_sim::{Nanos, SECOND};
use marlin_telemetry::BenchSection;
use Direction::{Better, Comparable, Worse};
use Preset::*;

/// One §6 workload; [`run_preset`] runs it on a backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preset {
    /// Figures 8–10: YCSB, 800 clients, 8→16 nodes at 10 s.
    Ycsb,
    /// Figure 11: TPC-C warehouses, 8→16 nodes at 10 s.
    Tpcc,
    /// Figure 12: SO`n`-`2n` in one region.
    Sweep(u32),
    /// Figure 13: SO`n`-`2n` over four regions, the services in US West.
    Geo(u32),
    /// Figure 14: 400→800→400 clients, scripted 8→16→8 nodes.
    Burst,
    /// Figure 15: `n` members, one membership update each per 15 s.
    Membership(u32),
}

/// When the Figure 14 burst scales out, and when it scales back in
/// (the `Scenario::dynamic_burst` schedule).
const BURST_OUT: Nanos = 20 * SECOND;
const BURST_IN: Nanos = 80 * SECOND;

impl Preset {
    /// The preset's scenario for `kind`, its granules divided by `scale`.
    fn scenario(self, kind: CoordKind, scale: u64) -> Scenario {
        match self {
            Ycsb => Scenario::ycsb_scale_out(kind, scale),
            Tpcc => Scenario::tpcc_scale_out(kind, scale),
            Sweep(n) => Scenario::sweep_point(kind, n, scale),
            Geo(n) => Scenario::sweep_point(kind, n, scale).geo(),
            Burst => Scenario::dynamic_burst(kind, scale),
            Membership(n) => Scenario::membership(kind, n, 15 * SECOND, 50 * SECOND),
        }
    }
}

/// What a claim compares: a number read off one finished run, from its
/// end-of-run metrics or, for Figure 14's scale-out, the run itself.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Short name, used in section names.
    pub name: &'static str,
    /// Whether more is better (throughput) or less (time, cost).
    higher_is_better: bool,
    of: fn(&MetricsSnapshot, &Run) -> f64,
}

const fn more(name: &'static str, of: fn(&MetricsSnapshot, &Run) -> f64) -> Metric {
    Metric {
        name,
        higher_is_better: true,
        of,
    }
}

const fn less(name: &'static str, of: fn(&MetricsSnapshot, &Run) -> f64) -> Metric {
    Metric {
        name,
        higher_is_better: false,
        of,
    }
}

const MIGRATION_TPUT: Metric = more("migration_tput", |m, _| m.migration_throughput);
const COMMITS: Metric = more("commits", |m, _| m.commits as f64);
/// First to last migration commit.
const MIGRATION_DURATION: Metric = less("migration_duration", |m, _| m.migration_duration as f64);
const MIGRATION_LATENCY: Metric = less("migration_latency", |m, _| m.migration_latency.mean);
const COST_PER_MTXN: Metric = less("cost_per_mtxn", |m, _| m.cost_per_mtxn);
/// Meta Cost's share of the total cost.
const META_SHARE: Metric = less("meta_share", |m, _| m.meta_cost / m.total_cost);
const ABORT_RATIO: Metric = less("abort_ratio", |m, _| m.abort_ratio);
/// Figure 14: from the scale-out order to the first whole second without
/// a migration.
const SCALE_OUT: Metric = less("scale_out", |_, r| r.scale_out as f64);
/// Figure 14: from the scale-in order until the node count is back at its
/// initial 8 (the paper's "reduces compute nodes 12 s after").
const SCALE_IN: Metric = less("scale_in", |m, r| {
    let lag = m.release_lag(8, BURST_IN);
    lag.unwrap_or(r.report.horizon - BURST_IN) as f64
});
const MEMBERSHIP_LATENCY: Metric = less("membership_latency", |m, _| m.membership_mean_latency);

/// The direction the paper claims, for the ratio oriented as in
/// [`Claim::ratio`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// The claim's run is better: ratio above 1.
    Better,
    /// Neither is more than 2× better: ratio within [0.5, 2].
    Comparable,
    /// The claim's run is worse: ratio below 1.
    Worse,
}

/// One comparative claim of §6.
#[derive(Clone, Copy, Debug)]
pub struct Claim {
    /// Figure (and panel) the claim is made in, e.g. `fig12a`.
    pub figure: &'static str,
    /// What is compared.
    pub metric: Metric,
    /// The run the claim is about.
    pub ours: (Preset, CoordKind),
    /// The run it is compared against.
    pub base: (Preset, CoordKind),
    /// The paper's ratio, where the paper gives one.
    pub paper: Option<f64>,
    /// The direction the paper claims.
    pub direction: Direction,
}

/// Marlin against `base` on the same preset.
#[rustfmt::skip]
const fn vs(
    figure: &'static str, preset: Preset, metric: Metric, base: CoordKind,
    paper: Option<f64>, direction: Direction,
) -> Claim {
    Claim { figure, metric, ours: (preset, Marlin), base: (preset, base), paper, direction }
}

/// `kind` at SO8-16 against itself at SO1-2.
const fn scaling(figure: &'static str, kind: CoordKind, metric: Metric, paper: f64) -> Claim {
    let base = (Sweep(1), kind);
    Claim {
        base,
        ours: (Sweep(8), kind),
        ..vs(figure, Sweep(8), metric, kind, Some(paper), Better)
    }
}

/// Every claim the §6 figures make, one row per (metric, compared pair);
/// "up to" ratios (Figures 12a and 13) sit on every row they bound.
#[rustfmt::skip]
pub const CLAIMS: &[Claim] = &[
    // Fig. 8: 2.3x / 1.9x higher migration throughput than S-ZK / L-ZK,
    // and the scale-out completes 2.6x / 1.9x faster.
    vs("fig08", Ycsb, MIGRATION_TPUT, SZk, Some(2.3), Better),
    vs("fig08", Ycsb, MIGRATION_TPUT, LZk, Some(1.9), Better),
    vs("fig08", Ycsb, MIGRATION_DURATION, SZk, Some(2.6), Better),
    vs("fig08", Ycsb, MIGRATION_DURATION, LZk, Some(1.9), Better),
    // Fig. 9: user throughput climbs back to ~12k tps sooner (more
    // commits over the run), and fewer user transactions abort.
    vs("fig09", Ycsb, COMMITS, SZk, None, Better),
    vs("fig09", Ycsb, COMMITS, LZk, None, Better),
    vs("fig09", Ycsb, ABORT_RATIO, SZk, None, Better),
    vs("fig09", Ycsb, ABORT_RATIO, LZk, None, Better),
    // Fig. 10: 2.57x / 1.87x lower migration latency, 1.35x / 1.61x
    // lower cost per user transaction.
    vs("fig10", Ycsb, MIGRATION_LATENCY, SZk, Some(2.57), Better),
    vs("fig10", Ycsb, MIGRATION_LATENCY, LZk, Some(1.87), Better),
    vs("fig10", Ycsb, COST_PER_MTXN, SZk, Some(1.35), Better),
    vs("fig10", Ycsb, COST_PER_MTXN, LZk, Some(1.61), Better),
    // Fig. 11 (TPC-C): migration 2.5x / 1.5x faster, less degradation of
    // user transactions.
    vs("fig11", Tpcc, MIGRATION_DURATION, SZk, Some(2.5), Better),
    vs("fig11", Tpcc, MIGRATION_DURATION, LZk, Some(1.5), Better),
    vs("fig11", Tpcc, COMMITS, SZk, None, Better),
    vs("fig11", Tpcc, COMMITS, LZk, None, Better),
    // Fig. 12a: lowest cost and shortest migration at every scale; up to
    // 4.4x cheaper than L-ZK (SO1-2), 2.5x faster than S-ZK (SO8-16).
    vs("fig12a", Sweep(1), COST_PER_MTXN, SZk, None, Better),
    vs("fig12a", Sweep(1), COST_PER_MTXN, LZk, Some(4.4), Better),
    vs("fig12a", Sweep(1), COST_PER_MTXN, Fdb, None, Better),
    vs("fig12a", Sweep(1), MIGRATION_DURATION, SZk, None, Better),
    vs("fig12a", Sweep(1), MIGRATION_DURATION, LZk, None, Better),
    vs("fig12a", Sweep(1), MIGRATION_DURATION, Fdb, None, Better),
    vs("fig12a", Sweep(2), COST_PER_MTXN, SZk, None, Better),
    vs("fig12a", Sweep(2), COST_PER_MTXN, LZk, None, Better),
    vs("fig12a", Sweep(2), COST_PER_MTXN, Fdb, None, Better),
    vs("fig12a", Sweep(2), MIGRATION_DURATION, SZk, None, Better),
    vs("fig12a", Sweep(2), MIGRATION_DURATION, LZk, None, Better),
    vs("fig12a", Sweep(2), MIGRATION_DURATION, Fdb, None, Better),
    vs("fig12a", Sweep(4), COST_PER_MTXN, SZk, None, Better),
    vs("fig12a", Sweep(4), COST_PER_MTXN, LZk, None, Better),
    vs("fig12a", Sweep(4), COST_PER_MTXN, Fdb, None, Better),
    vs("fig12a", Sweep(4), MIGRATION_DURATION, SZk, None, Better),
    vs("fig12a", Sweep(4), MIGRATION_DURATION, LZk, None, Better),
    vs("fig12a", Sweep(4), MIGRATION_DURATION, Fdb, None, Better),
    vs("fig12a", Sweep(8), COST_PER_MTXN, SZk, None, Better),
    vs("fig12a", Sweep(8), COST_PER_MTXN, LZk, None, Better),
    vs("fig12a", Sweep(8), COST_PER_MTXN, Fdb, None, Better),
    vs("fig12a", Sweep(8), MIGRATION_DURATION, SZk, Some(2.5), Better),
    vs("fig12a", Sweep(8), MIGRATION_DURATION, LZk, None, Better),
    vs("fig12a", Sweep(8), MIGRATION_DURATION, Fdb, None, Better),
    // Fig. 12b: Meta Cost is a shrinking share of L-ZK's cost, 75% -> 28%.
    scaling("fig12b", LZk, META_SHARE, 75.0 / 28.0),
    // Fig. 12c: Marlin's migration throughput grows linearly with scale
    // (8x from SO1-2 to SO8-16) while ZK/FDB gain less, so it leads all
    // three at SO8-16.
    scaling("fig12c", Marlin, MIGRATION_TPUT, 8.0),
    vs("fig12c", Sweep(8), MIGRATION_TPUT, SZk, None, Better),
    vs("fig12c", Sweep(8), MIGRATION_TPUT, LZk, None, Better),
    vs("fig12c", Sweep(8), MIGRATION_TPUT, Fdb, None, Better),
    // Fig. 13 (four regions): migration up to 4.9x shorter than the
    // ZooKeeper setups and up to 9.5x shorter than FDB; still cheapest.
    vs("fig13", Geo(4), MIGRATION_DURATION, SZk, Some(4.9), Better),
    vs("fig13", Geo(4), MIGRATION_DURATION, LZk, Some(4.9), Better),
    vs("fig13", Geo(4), MIGRATION_DURATION, Fdb, Some(9.5), Better),
    vs("fig13", Geo(4), COST_PER_MTXN, SZk, None, Better),
    vs("fig13", Geo(4), COST_PER_MTXN, LZk, None, Better),
    vs("fig13", Geo(4), COST_PER_MTXN, Fdb, None, Better),
    vs("fig13", Geo(8), MIGRATION_DURATION, SZk, Some(4.9), Better),
    vs("fig13", Geo(8), MIGRATION_DURATION, LZk, Some(4.9), Better),
    vs("fig13", Geo(8), MIGRATION_DURATION, Fdb, Some(9.5), Better),
    vs("fig13", Geo(8), COST_PER_MTXN, SZk, None, Better),
    vs("fig13", Geo(8), COST_PER_MTXN, LZk, None, Better),
    vs("fig13", Geo(8), COST_PER_MTXN, Fdb, None, Better),
    // Fig. 14: scale-out 2.6x / 2.3x and scale-in 3.8x / 2.6x faster; the
    // nodes go 12 s after the load drops, against 45 s / 32 s.
    vs("fig14", Burst, SCALE_OUT, SZk, Some(2.6), Better),
    vs("fig14", Burst, SCALE_OUT, LZk, Some(2.3), Better),
    vs("fig14", Burst, SCALE_IN, SZk, Some(3.8), Better),
    vs("fig14", Burst, SCALE_IN, LZk, Some(2.6), Better),
    // Fig. 15: membership updates comparable to ZooKeeper up to 160
    // nodes; beyond, OCC retries on the SysLog degrade them.
    vs("fig15", Membership(20), MEMBERSHIP_LATENCY, SZk, None, Comparable),
    vs("fig15", Membership(20), MEMBERSHIP_LATENCY, LZk, None, Comparable),
    vs("fig15", Membership(160), MEMBERSHIP_LATENCY, SZk, None, Comparable),
    vs("fig15", Membership(160), MEMBERSHIP_LATENCY, LZk, None, Comparable),
    vs("fig15", Membership(640), MEMBERSHIP_LATENCY, SZk, None, Worse),
    vs("fig15", Membership(640), MEMBERSHIP_LATENCY, LZk, None, Worse),
];

/// One finished (preset, backend) run.
#[derive(Clone, Debug)]
pub struct Run {
    /// The run's report.
    pub report: RunReport,
    /// Figure 14's scale-out time (0 for every other preset).
    scale_out: Nanos,
}

/// Run `preset` on `kind` at workload scale `scale`.
#[must_use]
pub fn run_preset(preset: Preset, kind: CoordKind, scale: u64) -> Run {
    let scenario = preset.scenario(kind, scale);
    let mut runner = SimRunner::new(&scenario);
    let report = run(scenario, &mut runner);
    let quiet = runner.sim().metrics.migrations.quiesced_after(BURST_OUT);
    let scale_out = quiet
        .filter(|_| preset == Burst)
        .map_or(0, |q| q - BURST_OUT);
    Run { report, scale_out }
}

/// Every (preset, backend) pair `claims` compares, once each, in table
/// order.
#[must_use]
pub fn runs_needed(claims: &[Claim]) -> Vec<(Preset, CoordKind)> {
    let mut keys = Vec::new();
    for key in claims.iter().flat_map(|c| [c.ours, c.base]) {
        if !keys.contains(&key) {
            keys.push(key);
        }
    }
    keys
}

impl Claim {
    /// The reproduced ratio: above 1 when `ours` is the better run.
    #[must_use]
    pub fn ratio(&self, ours: &Run, base: &Run) -> f64 {
        let of = |r: &Run| (self.metric.of)(&r.report.metrics, r);
        let (o, b) = (of(ours), of(base));
        if self.metric.higher_is_better {
            o / b
        } else {
            b / o
        }
    }

    /// Whether `ratio` points the way the paper claims.
    #[must_use]
    pub fn holds(&self, ratio: f64) -> bool {
        match self.direction {
            Better => ratio > 1.0,
            Comparable => (0.5..=2.0).contains(&ratio),
            Worse => ratio < 1.0,
        }
    }

    /// The row's name: figure, metric and both runs as `backend@scenario`.
    #[must_use]
    pub fn name(&self, ours: &Run, base: &Run) -> String {
        let at = |r: &Run| format!("{}@{}", r.report.backend, r.report.scenario);
        let (figure, metric) = (self.figure, self.metric.name);
        format!("{figure}/{metric}/{}/vs/{}", at(ours), at(base))
    }

    /// The row as a bench section: the ratio, and the two runs' summed
    /// commits, Meta Cost, virtual time and (when profiled) wall time.
    #[must_use]
    pub fn section(&self, ours: &Run, base: &Run) -> BenchSection {
        let [a, b] = [&ours.report, &base.report];
        let wall = |r: &RunReport| {
            r.telemetry
                .as_ref()
                .map_or(0, |t| t.profile.total_wall_nanos)
        };
        let sum = |f: fn(&RunReport) -> f64| f(a) + f(b);
        BenchSection {
            name: self.name(ours, base),
            wall_nanos: wall(a) + wall(b),
            virtual_nanos: a.horizon + b.horizon,
            values: vec![
                ("ratio".into(), self.ratio(ours, base)),
                ("commits".into(), sum(|r| r.metrics.commits as f64)),
                ("meta_cost".into(), sum(|r| r.metrics.meta_cost)),
            ],
            ..BenchSection::default()
        }
    }
}
