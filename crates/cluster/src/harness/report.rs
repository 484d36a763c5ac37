//! The unified [`RunReport`]: one result shape for every scenario on
//! every runner.
//!
//! The report carries the full controller decision log — one
//! [`DecisionRecord`] per control tick and per scripted event, each with
//! an observation digest (windowed throughput/p99, per-node CPU, $/hr
//! burn), the chosen [`ScaleAction`] if any, and the measured actuation
//! latency — plus the end-of-run [`MetricsSnapshot`] (including Meta
//! Cost). Reports serialize to JSON without external dependencies; set
//! `MARLIN_REPORT_JSON=<path>` and every bench target writes its reports
//! there as a machine-readable artifact.

use crate::harness::runner::{MetricsSnapshot, TelemetrySection};
use marlin_autoscaler::{ForecastSample, Observation, RegionLoad, ScaleAction};
use marlin_sim::Nanos;
use marlin_telemetry::json::{self, parse_json, Arr, Json, Obj, ToJson};
use marlin_telemetry::CoordBreakdown;

/// What produced a log entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionSource {
    /// A controller tick (the policy decided; `action` may be `None`).
    Policy,
    /// A scripted scale action from the scenario.
    Script,
    /// An injected fault.
    Fault,
    /// A plain observation sample (scripted runs without a policy).
    Sample,
}

impl DecisionSource {
    fn as_str(self) -> &'static str {
        match self {
            DecisionSource::Policy => "policy",
            DecisionSource::Script => "script",
            DecisionSource::Fault => "fault",
            DecisionSource::Sample => "sample",
        }
    }
}

/// The observation summary attached to every log entry — the windowed
/// series behind each figure, sampled at the control cadence.
#[derive(Clone, Debug)]
pub struct ObservationDigest {
    /// Live member count.
    pub live_nodes: u32,
    /// Committed user transactions per second over the window.
    pub throughput_tps: f64,
    /// p99 commit latency over the window.
    pub p99_latency: Nanos,
    /// Mean CPU utilization across live nodes.
    pub mean_utilization: f64,
    /// Mean offered work beyond capacity (queue build-up).
    pub queue_depth: f64,
    /// Current burn rate, $/hour.
    pub dollars_per_hour: f64,
    /// Per-node CPU utilization `(node id, rho)`.
    pub node_utilization: Vec<(u32, f64)>,
    /// Per-region digests (node counts, utilization, throughput, and
    /// spend split by placement) — the §6.5 per-region series.
    pub regions: Vec<RegionLoad>,
}

impl From<&Observation> for ObservationDigest {
    fn from(obs: &Observation) -> Self {
        ObservationDigest {
            live_nodes: obs.live_nodes,
            throughput_tps: obs.throughput_tps,
            p99_latency: obs.p99_latency,
            mean_utilization: obs.mean_utilization,
            queue_depth: obs.queue_depth,
            dollars_per_hour: obs.dollars_per_hour,
            node_utilization: obs
                .node_loads
                .iter()
                .filter(|n| n.alive)
                .map(|n| (n.node.0, n.utilization))
                .collect(),
            regions: obs.region_loads.clone(),
        }
    }
}

/// One entry of the decision log.
#[derive(Clone, Debug)]
pub struct DecisionRecord {
    /// Control tick index (0 for scripted events between ticks).
    pub tick: u64,
    /// Virtual time of the entry.
    pub at: Nanos,
    /// What produced it.
    pub source: DecisionSource,
    /// Cluster health at the decision instant.
    pub observation: ObservationDigest,
    /// The action taken, if any.
    pub action: Option<ScaleAction>,
    /// Forecast-vs-actual snapshots behind this decision — one per
    /// forecasting (sub-)policy (per region under regional composition);
    /// empty for non-forecasting policies, scripted events, and faults.
    pub forecasts: Vec<ForecastSample>,
    /// Wall-clock time spent actuating (real protocol execution on the
    /// synchronous runtime; scheduling cost in the simulator).
    pub actuation_micros: u64,
}

/// End-of-run forecast accuracy: every prediction in the decision log,
/// matured against the actual demand its region later reported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ForecastAccuracy {
    /// Predictions that matured inside the horizon.
    pub samples: u64,
    /// Mean absolute percentage error over them (0 = perfect).
    pub mape: f64,
    /// Signed mean relative error (positive = over-forecasting).
    pub bias: f64,
    /// Decision ticks on which the policy fell back to its inner
    /// reactive policy (model cold or error above the guard).
    pub fallback_ticks: u64,
}

impl ForecastAccuracy {
    /// Score every forecast in `log` against the actual demand later
    /// recorded for the same region, matching each prediction's due time
    /// to the first record at or past it that carries that region's
    /// sample. `None` when the log carries no forecasts (the run was not
    /// predictive).
    #[must_use]
    pub fn from_log(log: &[DecisionRecord]) -> Option<ForecastAccuracy> {
        // Per-region actual-demand series, in log order.
        let mut pending: Vec<(Option<u16>, Nanos, f64)> = Vec::new();
        let mut fallback_ticks = 0u64;
        let (mut n, mut abs_sum, mut signed_sum) = (0u64, 0.0f64, 0.0f64);
        let mut any = false;
        for record in log {
            for sample in &record.forecasts {
                any = true;
                // Distress ticks report a demand known to be gated
                // artificially low (the policy froze its own tracker for
                // exactly this reason) — scoring predictions against it
                // would inflate the end-of-run MAPE with samples the
                // design says must not count. The predictions stay
                // pending and mature on the first healthy sample.
                if sample.distressed {
                    continue;
                }
                let region = sample.region.map(|r| r.0);
                // Mature every prediction for this region that is due,
                // with the same relative-error floor the in-policy
                // tracker applies.
                let mut i = 0;
                while i < pending.len() {
                    let (p_region, due, predicted) = pending[i];
                    if p_region == region && due <= sample.at {
                        pending.swap_remove(i);
                        let err = marlin_autoscaler::relative_error(predicted, sample.demand);
                        n += 1;
                        abs_sum += err.abs();
                        signed_sum += err;
                    } else {
                        i += 1;
                    }
                }
                if sample.predicted.is_finite() {
                    pending.push((region, sample.at + sample.lead, sample.predicted));
                }
            }
            if record.forecasts.iter().any(|s| s.fallback) {
                fallback_ticks += 1;
            }
        }
        any.then_some(ForecastAccuracy {
            samples: n,
            mape: if n > 0 { abs_sum / n as f64 } else { f64::NAN },
            bias: if n > 0 {
                signed_sum / n as f64
            } else {
                f64::NAN
            },
            fallback_ticks,
        })
    }
}

/// The unified result of one scenario run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Scenario name.
    pub scenario: String,
    /// Backend legend name ("Marlin", "S-ZK", ...).
    pub backend: String,
    /// Runner name ("cluster-sim", "local-cluster").
    pub runner: String,
    /// Policy name, if the run was closed-loop.
    pub policy: Option<String>,
    /// Which CPU congestion model produced the latency/utilization
    /// numbers ("analytic" or "per-request"; meaningful on the
    /// simulator — `LocalRunner` synthesizes observations, but the
    /// scenario's choice is recorded either way).
    pub cpu_model: String,
    /// The deterministic seed the run used.
    pub seed: u64,
    /// End of simulated time.
    pub horizon: Nanos,
    /// The full decision log (every control tick + scripted event).
    pub log: Vec<DecisionRecord>,
    /// Forecast accuracy over the run (`None` unless the policy
    /// forecasts): matured MAPE/bias plus how many ticks fell back to
    /// reactive behavior.
    pub forecast: Option<ForecastAccuracy>,
    /// End-of-run totals.
    pub metrics: MetricsSnapshot,
    /// Observability numbers, present only when telemetry was enabled
    /// for the run. `None` keeps the JSON key out entirely, so
    /// telemetry-off reports stay bit-identical to historical ones (the
    /// profiler's wall-clock numbers are host-dependent).
    pub telemetry: Option<TelemetrySection>,
}

impl RunReport {
    /// Entries where an action was actually taken, in order.
    #[must_use]
    pub fn actions(&self) -> Vec<&DecisionRecord> {
        self.log.iter().filter(|r| r.action.is_some()).collect()
    }

    /// Scale actions (adds/removes, not rebalances) taken by the policy.
    #[must_use]
    pub fn scale_action_count(&self) -> usize {
        self.log
            .iter()
            .filter(|r| r.source == DecisionSource::Policy)
            .filter(|r| {
                matches!(
                    r.action,
                    Some(ScaleAction::AddNodes { .. } | ScaleAction::RemoveNodes { .. })
                )
            })
            .count()
    }

    /// Virtual time of the first action satisfying `pred` at or after
    /// `t`.
    #[must_use]
    pub fn first_action_at(&self, t: Nanos, pred: impl Fn(&ScaleAction) -> bool) -> Option<Nanos> {
        self.log
            .iter()
            .filter(|r| r.at >= t)
            .find(|r| r.action.as_ref().is_some_and(&pred))
            .map(|r| r.at)
    }

    /// Peak live node count over the run.
    #[must_use]
    pub fn peak_nodes(&self) -> u32 {
        self.metrics.peak_nodes()
    }

    /// Scale-in release lag after `after` (see
    /// [`MetricsSnapshot::release_lag`]).
    #[must_use]
    pub fn release_lag(&self, base: u32, after: Nanos) -> Option<Nanos> {
        self.metrics.release_lag(base, after)
    }

    /// Policy decision ticks whose observed p99 exceeded `ceiling` — the
    /// SLO-violation count the predictive-vs-reactive comparison tables
    /// report.
    #[must_use]
    pub fn slo_violation_ticks(&self, ceiling: Nanos) -> usize {
        self.log
            .iter()
            .filter(|r| r.source == DecisionSource::Policy)
            .filter(|r| r.observation.p99_latency > ceiling)
            .count()
    }

    /// Node-seconds of capacity held over the run, integrated from the
    /// exact node-count series — the "node cost" axis of the
    /// SLO-violations-vs-cost frontier.
    #[must_use]
    pub fn node_seconds(&self) -> f64 {
        let series = &self.metrics.node_count;
        let mut total = 0.0;
        for w in series.windows(2) {
            total += w[0].1 * (w[1].0 - w[0].0) as f64;
        }
        if let Some(&(t, v)) = series.last() {
            total += v * self.horizon.saturating_sub(t) as f64;
        }
        total / marlin_sim::SECOND as f64
    }

    /// The compact `(tick, action)` signature of the policy's decisions —
    /// what the runner-parity test compares across backends.
    #[must_use]
    pub fn decision_signature(&self) -> Vec<(u64, String)> {
        self.log
            .iter()
            .filter(|r| r.source == DecisionSource::Policy)
            .filter_map(|r| r.action.as_ref().map(|a| (r.tick, action_signature(a))))
            .collect()
    }

    /// Serialize the report (log and metrics included) to JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096 + 256 * self.log.len());
        json::object(&mut out, |o| self.write_json(o));
        out
    }

    fn write_json(&self, o: &mut Obj<'_>) {
        o.field("scenario", &self.scenario)
            .field("backend", &self.backend)
            .field("runner", &self.runner)
            .field("policy", &self.policy)
            .field("cpu_model", &self.cpu_model)
            .field("seed", self.seed)
            .field("horizon_ns", self.horizon)
            .obj_or_null("forecast_accuracy", self.forecast.as_ref(), |o, f| {
                o.field("samples", f.samples)
                    .field("mape", f.mape)
                    .field("bias", f.bias)
                    .field("fallback_ticks", f.fallback_ticks);
            })
            .arr("log", |a| {
                for r in &self.log {
                    a.obj(|o| record_json(o, r));
                }
            });
        if let Some(t) = &self.telemetry {
            o.obj("telemetry", |o| telemetry_json(o, t));
        }
        o.obj("metrics", |o| metrics_json(o, &self.metrics));
    }
}

/// A short, comparison-friendly label of an action ("add+8",
/// "add+2@r1" for a region-targeted scale-out, "remove-2",
/// "rebalance*5").
#[must_use]
pub fn action_signature(action: &ScaleAction) -> String {
    match action {
        ScaleAction::AddNodes {
            count,
            region: Some(r),
        } => format!("add+{count}@r{}", r.0),
        ScaleAction::AddNodes {
            count,
            region: None,
        } => format!("add+{count}"),
        ScaleAction::RemoveNodes { victims } => format!("remove-{}", victims.len()),
        ScaleAction::Rebalance { moves } => format!("rebalance*{}", moves.len()),
    }
}

/// If `MARLIN_REPORT_JSON` is set, write `reports` there as a JSON array
/// and return the path. Every bench target calls this so figure runs
/// leave machine-readable artifacts including the decision logs.
///
/// Reports *accumulate*: if the file already holds a JSON array (e.g.
/// from an earlier target of a `cargo bench` sweep), the new reports are
/// appended to it; a file holding anything else is replaced. Delete the
/// file to start fresh.
pub fn maybe_write_json(reports: &[RunReport]) -> Option<String> {
    let path = std::env::var("MARLIN_REPORT_JSON")
        .ok()
        .filter(|p| !p.is_empty())?;
    match append_reports(&path, reports) {
        Ok(()) => {
            println!("wrote {} RunReport(s) to {path}", reports.len());
            Some(path)
        }
        Err(e) => {
            eprintln!("MARLIN_REPORT_JSON: cannot write {path}: {e}");
            None
        }
    }
}

/// Append `reports` to the JSON array at `path`, one report per line. A
/// file that does not hold a JSON array (a truncated one, say) is
/// replaced by a fresh array, with a note on stderr.
fn append_reports(path: &str, reports: &[RunReport]) -> std::io::Result<()> {
    let prior = std::fs::read_to_string(path).ok();
    // The prior array's text up to its closing `]`, when it holds elements.
    let head = prior.as_deref().and_then(|text| match parse_json(text) {
        Ok(Json::Arr(items)) if items.is_empty() => None,
        Ok(Json::Arr(_)) => text.trim_end().strip_suffix(']'),
        _ => {
            eprintln!("MARLIN_REPORT_JSON: {path} is not a JSON array; writing a fresh one");
            None
        }
    });
    let mut doc = head.unwrap_or("[").to_owned();
    json::lines(&mut doc, head.is_some(), |a| {
        for r in reports {
            a.obj(|o| r.write_json(o));
        }
    });
    doc.push_str("]\n");
    std::fs::write(path, doc)
}

fn pairs<K: ToJson + Copy>(a: &mut Arr<'_>, pairs: &[(K, f64)]) {
    for &(k, v) in pairs {
        a.arr(|p| {
            p.item(k).item(v);
        });
    }
}

fn action_json(o: &mut Obj<'_>, action: &ScaleAction) {
    match action {
        ScaleAction::AddNodes { count, region } => {
            o.field("kind", "add_nodes")
                .field("count", *count)
                .field("region", region.map(|r| r.0));
        }
        ScaleAction::RemoveNodes { victims } => {
            o.field("kind", "remove_nodes").arr("victims", |a| {
                for n in victims {
                    a.item(n.0);
                }
            });
        }
        ScaleAction::Rebalance { moves } => {
            o.field("kind", "rebalance").arr("moves", |a| {
                for m in moves {
                    a.arr(|c| {
                        c.item(m.granule.0).item(m.src.0).item(m.dst.0);
                    });
                }
            });
        }
    }
}

fn forecast_json(o: &mut Obj<'_>, s: &ForecastSample) {
    o.field("region", s.region.map(|r| r.0))
        .field("demand", s.demand)
        .field("predicted", s.predicted)
        .field("lead_ns", s.lead)
        .field("rolling_mape", s.rolling_mape)
        .field("bias", s.bias)
        .field("fallback", s.fallback)
        .field("distressed", s.distressed);
}

fn region_load_json(o: &mut Obj<'_>, r: &RegionLoad) {
    o.field("region", r.region.0)
        .field("live_nodes", r.live_nodes)
        .field("mean_utilization", r.mean_utilization)
        .field("queue_depth", r.queue_depth)
        .field("p99_latency_ns", r.p99_latency)
        .field("throughput_tps", r.throughput_tps)
        .field("dollars_per_hour", r.dollars_per_hour);
}

fn record_json(o: &mut Obj<'_>, r: &DecisionRecord) {
    let d = &r.observation;
    o.field("tick", r.tick)
        .field("at_ns", r.at)
        .field("source", r.source.as_str())
        .obj("observation", |o| {
            o.field("live_nodes", d.live_nodes)
                .field("throughput_tps", d.throughput_tps)
                .field("p99_latency_ns", d.p99_latency)
                .field("mean_utilization", d.mean_utilization)
                .field("queue_depth", d.queue_depth)
                .field("dollars_per_hour", d.dollars_per_hour)
                .arr("node_utilization", |a| pairs(a, &d.node_utilization))
                .arr("regions", |a| {
                    for region in &d.regions {
                        a.obj(|o| region_load_json(o, region));
                    }
                });
        })
        .obj_or_null("action", r.action.as_ref(), action_json);
    if !r.forecasts.is_empty() {
        o.arr("forecasts", |a| {
            for s in &r.forecasts {
                a.obj(|o| forecast_json(o, s));
            }
        });
    }
    o.field("actuation_micros", r.actuation_micros);
}

fn metrics_json(o: &mut Obj<'_>, m: &MetricsSnapshot) {
    o.field("live_nodes", m.live_nodes)
        .field("commits", m.commits)
        .field("abort_ratio", m.abort_ratio)
        .field("mean_latency_ns", m.mean_latency)
        .field("p99_latency_ns", m.p99_latency)
        .field("migrations", m.migrations)
        .field("migration_duration_ns", m.migration_duration)
        .field("migration_throughput", m.migration_throughput)
        .field("migration_latency_mean_ns", m.migration_latency.mean)
        .field("migration_latency_p99_ns", m.migration_latency.p99)
        .field("membership_commits", m.membership_commits)
        .field("membership_retries", m.membership_retries)
        .field("membership_mean_latency_ns", m.membership_mean_latency)
        .field("db_cost", m.db_cost)
        .field("meta_cost", m.meta_cost)
        .obj("coordination", |o| coordination_json(o, &m.coordination))
        .field("total_cost", m.total_cost)
        .field("cost_per_mtxn", m.cost_per_mtxn)
        .arr("region_breakdown", |a| {
            for r in &m.region_breakdown {
                a.obj(|o| {
                    o.field("region", r.region)
                        .field("live_nodes", r.live_nodes)
                        .arr("nodes", |a| {
                            for n in &r.nodes {
                                a.item(n);
                            }
                        })
                        .field("commits", r.commits)
                        .field("db_cost", r.db_cost);
                });
            }
        })
        .obj("blame", |o| blame_json(o, &m.blame))
        .arr("tail_exemplars", |a| {
            for e in &m.tail_exemplars {
                a.obj(|o| {
                    o.field("at_ns", e.at)
                        .field("latency_ns", e.latency)
                        .field("granule", e.granule)
                        .field("node", e.node)
                        .field("region", e.region)
                        .field("weight", e.weight)
                        .obj("blame", |o| blame_json(o, &e.blame));
                });
            }
        })
        .arr("node_count", |a| pairs(a, &m.node_count));
}

fn blame_json(o: &mut Obj<'_>, b: &crate::metrics::Blame) {
    o.field("queue_wait_ns", b.queue_wait)
        .field("service_ns", b.service)
        .field("network_ns", b.network)
        .field("network_overlay_ns", b.network_overlay)
        .field("migration_stall_ns", b.migration_stall)
        .field("provision_lead_ns", b.provision_lead)
        .field("retry_backoff_ns", b.retry_backoff);
}

fn coordination_json(o: &mut Obj<'_>, c: &CoordBreakdown) {
    let n = &c.ops;
    o.field("commit_cas_attempts", n.commit_cas_attempts)
        .field("commit_cas_retries", n.commit_cas_retries)
        .field("migration_cas_attempts", n.migration_cas_attempts)
        .field("migration_cas_retries", n.migration_cas_retries)
        .field("membership_cas_attempts", n.membership_cas_attempts)
        .field("membership_cas_retries", n.membership_cas_retries)
        .field("service_writes", n.service_writes)
        .field("service_reads", n.service_reads)
        .field("watch_notifications", n.watch_notifications)
        .field("write_dollars", c.write_dollars)
        .field("read_dollars", c.read_dollars)
        .field("uptime_dollars", c.uptime_dollars)
        .field("meta_dollars", c.meta_dollars());
}

fn telemetry_json(o: &mut Obj<'_>, t: &TelemetrySection) {
    let p = &t.profile;
    o.field("trace_events", t.trace_events)
        .field("trace_dropped", t.trace_dropped)
        .field("virtual_ns", t.virtual_nanos)
        .field("wall_ns", p.total_wall_nanos)
        .field("virtual_per_wall", t.virtual_per_wall())
        .field("events", p.events)
        .field("queue_depth_mean", p.queue_depth_mean)
        .field("queue_depth_max", p.queue_depth_max);
    p.write_phases(o);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::runner::RegionBreakdown;
    use marlin_common::{NodeId, RegionId};
    use marlin_sim::Summary;

    fn snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            live_nodes: 4,
            commits: 100,
            abort_ratio: 0.01,
            mean_latency: 1.0e6,
            p99_latency: 5_000_000,
            migrations: 7,
            migration_duration: 2_000_000_000,
            migration_throughput: 3.5,
            migration_latency: Summary {
                count: 7,
                mean: 1.5e6,
                p50: 1_000_000,
                p99: 2_000_000,
                max: 3_000_000,
            },
            membership_commits: 0,
            membership_retries: 0,
            membership_mean_latency: 0.0,
            db_cost: 0.12,
            meta_cost: 0.0,
            coordination: CoordBreakdown::attribute(
                marlin_telemetry::CoordOps {
                    commit_cas_attempts: 100,
                    commit_cas_retries: 3,
                    migration_cas_attempts: 14,
                    ..marlin_telemetry::CoordOps::default()
                },
                0.0,
            ),
            total_cost: 0.12,
            cost_per_mtxn: 1.2,
            node_count: vec![(0, 2.0), (1_000_000_000, 4.0), (2_000_000_000, 2.0)],
            region_breakdown: vec![
                RegionBreakdown {
                    region: 0,
                    live_nodes: 2,
                    nodes: vec![0, 2],
                    commits: 60,
                    db_cost: 0.08,
                },
                RegionBreakdown {
                    region: 1,
                    live_nodes: 2,
                    nodes: vec![1, 3],
                    commits: 40,
                    db_cost: 0.04,
                },
            ],
            blame: crate::metrics::Blame {
                queue_wait: 10,
                service: 20,
                network: 30,
                network_overlay: 4,
                migration_stall: 5,
                provision_lead: 6,
                retry_backoff: 25,
            },
            tail_exemplars: vec![crate::metrics::TailExemplar {
                at: 2_500_000_000,
                latency: 5_000_000,
                granule: 42,
                node: 1,
                region: 0,
                weight: 1,
                blame: crate::metrics::Blame {
                    queue_wait: 1_000_000,
                    service: 4_000_000,
                    ..crate::metrics::Blame::default()
                },
            }],
        }
    }

    fn report() -> RunReport {
        RunReport {
            scenario: "unit \"quoted\"".into(),
            backend: "Marlin".into(),
            runner: "cluster-sim".into(),
            policy: Some("reactive".into()),
            cpu_model: "analytic".into(),
            seed: 42,
            horizon: 3_000_000_000,
            log: vec![DecisionRecord {
                tick: 1,
                at: 1_000_000_000,
                source: DecisionSource::Policy,
                observation: ObservationDigest {
                    live_nodes: 2,
                    throughput_tps: 120.5,
                    p99_latency: 9_000_000,
                    mean_utilization: 0.9,
                    queue_depth: 0.0,
                    dollars_per_hour: 0.384,
                    node_utilization: vec![(0, 0.92), (1, 0.88)],
                    regions: vec![RegionLoad {
                        region: RegionId(0),
                        live_nodes: 2,
                        mean_utilization: 0.9,
                        queue_depth: 0.0,
                        p99_latency: 9_000_000,
                        throughput_tps: 120.5,
                        dollars_per_hour: 0.384,
                    }],
                },
                action: Some(ScaleAction::RemoveNodes {
                    victims: vec![NodeId(3)],
                }),
                forecasts: Vec::new(),
                actuation_micros: 12,
            }],
            forecast: None,
            metrics: snapshot(),
            telemetry: None,
        }
    }

    /// A two-tick predictive log: a perfect prediction issued at t=1s
    /// maturing at t=2s, plus one cold fallback tick.
    fn forecast_log() -> Vec<DecisionRecord> {
        let record = |tick: u64, at: Nanos, sample: ForecastSample| DecisionRecord {
            tick,
            at,
            source: DecisionSource::Policy,
            observation: report().log[0].observation.clone(),
            action: None,
            forecasts: vec![sample],
            actuation_micros: 0,
        };
        vec![
            record(
                1,
                1_000_000_000,
                ForecastSample {
                    region: None,
                    at: 1_000_000_000,
                    demand: 4.0,
                    predicted: 6.0,
                    lead: 1_000_000_000,
                    rolling_mape: f64::NAN,
                    bias: f64::NAN,
                    fallback: true,
                    distressed: false,
                },
            ),
            record(
                2,
                2_000_000_000,
                ForecastSample {
                    region: None,
                    at: 2_000_000_000,
                    demand: 4.0,
                    predicted: 4.0,
                    lead: 1_000_000_000,
                    rolling_mape: 0.5,
                    bias: 0.5,
                    fallback: false,
                    distressed: false,
                },
            ),
        ]
    }

    #[test]
    fn json_round_trip_contains_the_decision_log() {
        let j = report().to_json();
        assert!(j.contains("\"scenario\":\"unit \\\"quoted\\\"\""));
        assert!(j.contains("\"cpu_model\":\"analytic\""));
        assert!(j.contains("\"kind\":\"remove_nodes\""));
        assert!(j.contains("\"victims\":[3]"));
        assert!(j.contains("\"node_utilization\":[[0,0.92],[1,0.88]]"));
        assert!(j.contains("\"meta_cost\":0"));
        // The per-region split rides in both the digest and the metrics.
        assert!(j.contains("\"regions\":[{\"region\":0,\"live_nodes\":2,"));
        assert!(j.contains(
            "\"region_breakdown\":[{\"region\":0,\"live_nodes\":2,\"nodes\":[0,2],\
             \"commits\":60,\"db_cost\":0.08}"
        ));
        assert!(j.contains("\"node_count\":[[0,2],[1000000000,4],[2000000000,2]]"));
        // The attribution section sits between region_breakdown and
        // node_count: cumulative blame plus the slowest-commit exemplars.
        assert!(j.contains(
            "\"blame\":{\"queue_wait_ns\":10,\"service_ns\":20,\"network_ns\":30,\
             \"network_overlay_ns\":4,\"migration_stall_ns\":5,\
             \"provision_lead_ns\":6,\"retry_backoff_ns\":25}"
        ));
        assert!(j.contains(
            "\"tail_exemplars\":[{\"at_ns\":2500000000,\"latency_ns\":5000000,\
             \"granule\":42,\"node\":1,\"region\":0,\"weight\":1,\
             \"blame\":{\"queue_wait_ns\":1000000,\"service_ns\":4000000,"
        ));
        assert_eq!(j, include_str!("../../tests/fixtures/report/plain.json"));
        // The same facts, read back through the codec.
        let v = parse_json(&j).expect("the report parses");
        assert_eq!(
            v.get("scenario").and_then(Json::as_str),
            Some("unit \"quoted\"")
        );
        let log = v.get("log").and_then(Json::as_arr).expect("log array");
        assert_eq!(log.len(), 1);
        let action = log[0].get("action").expect("action");
        assert_eq!(
            action.get("kind").and_then(Json::as_str),
            Some("remove_nodes")
        );
        assert_eq!(
            action.get("victims"),
            Some(&Json::Arr(vec![Json::Num(3.0)]))
        );
        let metrics = v.get("metrics").expect("metrics");
        assert_eq!(metrics.get("meta_cost").and_then(Json::as_f64), Some(0.0));
        let exemplar = &metrics
            .get("tail_exemplars")
            .and_then(Json::as_arr)
            .expect("exemplars")[0];
        assert_eq!(
            exemplar
                .get("blame")
                .and_then(|b| b.get("service_ns"))
                .and_then(Json::as_f64),
            Some(4_000_000.0)
        );
    }

    /// The full documents, byte for byte: every field the report writer
    /// has ever emitted, in order, with its escaping and `null`s.
    #[test]
    fn report_documents_match_the_pinned_bytes() {
        let mut r = report();
        r.policy = None;
        r.telemetry = Some(TelemetrySection {
            trace_events: 12,
            trace_dropped: 0,
            profile: marlin_telemetry::ProfileSummary {
                phases: vec![
                    marlin_telemetry::PhaseStat {
                        name: "event:\"odd\"\nname",
                        wall_nanos: 1_000,
                        calls: 2,
                    },
                    marlin_telemetry::PhaseStat {
                        name: "observe",
                        wall_nanos: 7,
                        calls: 1,
                    },
                ],
                total_wall_nanos: 2_000_000,
                events: 40,
                queue_depth_mean: 3.5,
                queue_depth_max: 9,
            },
            virtual_nanos: 3_000_000_000,
        });
        let mv = |g: u64, src: u32, dst: u32| marlin_autoscaler::GranuleMove {
            granule: marlin_common::GranuleId(g),
            src: NodeId(src),
            dst: NodeId(dst),
        };
        r.log[0].action = Some(ScaleAction::Rebalance {
            moves: vec![mv(5, 1, 2), mv(6, 2, 0)],
        });
        let observation = r.log[0].observation.clone();
        let entry = |at: Nanos, source, action, actuation_micros| DecisionRecord {
            tick: 0,
            at,
            source,
            observation: observation.clone(),
            action,
            forecasts: Vec::new(),
            actuation_micros,
        };
        r.log.push(entry(
            1_500_000_000,
            DecisionSource::Script,
            Some(ScaleAction::add_in(2, RegionId(1))),
            3,
        ));
        r.log
            .push(entry(1_600_000_000, DecisionSource::Fault, None, 0));
        assert_eq!(
            r.to_json(),
            include_str!("../../tests/fixtures/report/rich.json")
        );
    }

    #[test]
    fn coordination_breakdown_round_trips_through_metrics_json() {
        let j = report().to_json();
        // The coordination object rides inside metrics, raw counters and
        // attributed dollars alike (all-zero dollars here: Marlin).
        assert!(j.contains(
            "\"coordination\":{\"commit_cas_attempts\":100,\"commit_cas_retries\":3,\
             \"migration_cas_attempts\":14,\"migration_cas_retries\":0,\
             \"membership_cas_attempts\":0,\"membership_cas_retries\":0,\
             \"service_writes\":0,\"service_reads\":0,\"watch_notifications\":0,\
             \"write_dollars\":0,\"read_dollars\":0,\"uptime_dollars\":0,\
             \"meta_dollars\":0}"
        ));
        let coordination = parse_json(&j)
            .expect("the report parses")
            .get("metrics")
            .and_then(|m| m.get("coordination"))
            .cloned()
            .expect("metrics.coordination");
        assert_eq!(
            coordination.get("migration_cas_attempts"),
            Some(&Json::Num(14.0))
        );
        assert_eq!(coordination.get("meta_dollars"), Some(&Json::Num(0.0)));
    }

    #[test]
    fn telemetry_section_is_omitted_when_none_and_escaped_when_present() {
        // Telemetry off: the key must not exist at all, keeping the JSON
        // bit-identical to pre-telemetry reports.
        let j = report().to_json();
        assert!(!j.contains("\"telemetry\""));

        let mut r = report();
        r.telemetry = Some(TelemetrySection {
            trace_events: 12,
            trace_dropped: 0,
            profile: marlin_telemetry::ProfileSummary {
                phases: vec![marlin_telemetry::PhaseStat {
                    // Phase names are static today, but the serializer
                    // must escape regardless.
                    name: "event:\"odd\"\nname",
                    wall_nanos: 1_000,
                    calls: 2,
                }],
                total_wall_nanos: 2_000_000,
                events: 40,
                queue_depth_mean: 3.5,
                queue_depth_max: 9,
            },
            virtual_nanos: 3_000_000_000,
        });
        let j = r.to_json();
        assert!(j.contains("\"telemetry\":{\"trace_events\":12,\"trace_dropped\":0,"));
        assert!(j.contains("\"virtual_ns\":3000000000,\"wall_ns\":2000000"));
        // 3e9 virtual ns over 2e6 wall ns = 1500x real time.
        assert!(j.contains("\"virtual_per_wall\":1500,"));
        assert!(j.contains("\"queue_depth_mean\":3.5,\"queue_depth_max\":9"));
        assert!(j.contains("{\"name\":\"event:\\\"odd\\\"\\nname\",\"wall_ns\":1000,\"calls\":2}"));
        let v = parse_json(&j).expect("the report parses");
        let phase = &v
            .get("telemetry")
            .and_then(|t| t.get("phases"))
            .and_then(Json::as_arr)
            .expect("telemetry.phases")[0];
        assert_eq!(
            phase.get("name").and_then(Json::as_str),
            Some("event:\"odd\"\nname")
        );
    }

    #[test]
    fn empty_phase_list_serializes_as_an_empty_array() {
        let mut r = report();
        r.telemetry = Some(TelemetrySection {
            trace_events: 0,
            trace_dropped: 0,
            profile: marlin_telemetry::ProfileSummary::default(),
            virtual_nanos: 0,
        });
        let j = r.to_json();
        assert!(j.contains("\"phases\":[]"));
        // No wall time recorded → speedup reports 0, not NaN/null.
        assert!(j.contains("\"virtual_per_wall\":0,"));
        assert_eq!(
            j,
            include_str!("../../tests/fixtures/report/empty_phases.json")
        );
    }

    #[test]
    fn reports_splice_into_an_array_and_replace_anything_else() {
        let path = std::env::temp_dir().join(format!("marlin-reports-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        let read = || parse_json(&std::fs::read_to_string(path).expect("written")).expect("parses");
        // A truncated file must not be spliced into.
        std::fs::write(path, "[{\"a\":[1]").expect("seed the file");
        append_reports(path, &[report()]).expect("write");
        let doc = read();
        let items = doc.as_arr().expect("an array");
        assert_eq!(items.len(), 1);
        assert_eq!(
            items[0].get("scenario").and_then(Json::as_str),
            Some("unit \"quoted\"")
        );
        // A well-formed array keeps its elements and gains the new ones.
        append_reports(path, &[report(), report()]).expect("write");
        assert_eq!(read().as_arr().map(<[Json]>::len), Some(3));
        // Appending nothing leaves a valid array.
        append_reports(path, &[]).expect("write");
        assert_eq!(read().as_arr().map(<[Json]>::len), Some(3));
        // An empty prior array, in any layout, gains the new reports.
        for empty in ["[]", "[ ]\n", "[]\n"] {
            std::fs::write(path, empty).expect("seed the file");
            append_reports(path, &[report()]).expect("write");
            assert_eq!(read().as_arr().map(<[Json]>::len), Some(1), "{empty:?}");
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn peak_and_release_lag_come_from_the_node_series() {
        let r = report();
        assert_eq!(r.peak_nodes(), 4);
        assert_eq!(r.release_lag(2, 1_500_000_000), Some(500_000_000));
        assert_eq!(r.release_lag(1, 0), None);
    }

    #[test]
    fn action_signatures_carry_the_target_region() {
        assert_eq!(action_signature(&ScaleAction::add(2)), "add+2");
        assert_eq!(
            action_signature(&ScaleAction::add_in(2, RegionId(1))),
            "add+2@r1"
        );
        let write = |action: &ScaleAction| {
            let mut out = String::new();
            json::object(&mut out, |o| action_json(o, action));
            out
        };
        assert_eq!(
            write(&ScaleAction::add_in(2, RegionId(1))),
            "{\"kind\":\"add_nodes\",\"count\":2,\"region\":1}"
        );
        assert_eq!(
            write(&ScaleAction::add(2)),
            "{\"kind\":\"add_nodes\",\"count\":2,\"region\":null}"
        );
    }

    #[test]
    fn forecast_accuracy_matures_predictions_against_later_demand() {
        assert_eq!(
            ForecastAccuracy::from_log(&report().log),
            None,
            "a non-predictive log has no accuracy to report"
        );
        let acc = ForecastAccuracy::from_log(&forecast_log()).expect("forecasts present");
        // One matured prediction (6.0 predicted for t=2s vs 4.0 actual):
        // relative error (6-4)/4 = 0.5; one fallback tick.
        assert_eq!(acc.samples, 1);
        assert!((acc.mape - 0.5).abs() < 1e-12);
        assert!((acc.bias - 0.5).abs() < 1e-12);
        assert_eq!(acc.fallback_ticks, 1);
    }

    #[test]
    fn distressed_samples_never_mature_predictions() {
        // The policy freezes its own tracker on distress ticks because
        // the measured demand is gated artificially low; the end-of-run
        // scorer must mirror that, holding the prediction pending until
        // the first healthy sample.
        let mut log = forecast_log();
        log[1].forecasts[0].distressed = true;
        log[1].forecasts[0].demand = 0.5; // gated reading
        let acc = ForecastAccuracy::from_log(&log).expect("forecasts present");
        assert_eq!(
            acc.samples, 0,
            "the only due sample was distressed — nothing matures"
        );
        assert!(acc.mape.is_nan());
        // A later healthy sample matures it against the real demand.
        let mut healthy = log[1].clone();
        healthy.at = 3_000_000_000;
        healthy.forecasts[0].at = 3_000_000_000;
        healthy.forecasts[0].distressed = false;
        healthy.forecasts[0].demand = 4.0;
        log.push(healthy);
        let acc = ForecastAccuracy::from_log(&log).expect("forecasts present");
        assert_eq!(acc.samples, 1);
        assert!(
            (acc.mape - 0.5).abs() < 1e-12,
            "scored against 4.0, not 0.5"
        );
    }

    #[test]
    fn forecasts_serialize_into_record_and_report_json() {
        let mut r = report();
        r.log = forecast_log();
        r.forecast = ForecastAccuracy::from_log(&r.log);
        let j = r.to_json();
        assert!(j.contains(
            "\"forecast_accuracy\":{\"samples\":1,\"mape\":0.5,\"bias\":0.5,\"fallback_ticks\":1}"
        ));
        assert!(j.contains("\"forecasts\":[{\"region\":null,\"demand\":4,\"predicted\":6,\"lead_ns\":1000000000,\"rolling_mape\":null,\"bias\":null,\"fallback\":true,\"distressed\":false}]"));
        assert_eq!(j, include_str!("../../tests/fixtures/report/forecast.json"));
        let v = parse_json(&j).expect("the report parses");
        let first = &v.get("log").and_then(Json::as_arr).expect("log")[0];
        let sample = &first
            .get("forecasts")
            .and_then(Json::as_arr)
            .expect("forecasts")[0];
        assert_eq!(sample.get("rolling_mape"), Some(&Json::Null));
        // Non-predictive reports keep a null accuracy and omit per-record
        // forecast arrays entirely.
        let j = report().to_json();
        assert!(j.contains("\"forecast_accuracy\":null"));
        assert!(!j.contains("\"forecasts\":["));
    }

    #[test]
    fn slo_violations_and_node_seconds_read_the_log_and_series() {
        let r = report();
        // The single policy tick observed p99 = 9 ms.
        assert_eq!(r.slo_violation_ticks(8_000_000), 1);
        assert_eq!(r.slo_violation_ticks(10_000_000), 0);
        // node_count: 2 nodes for 1 s, 4 for 1 s, 2 for the last 1 s of
        // the 3 s horizon → 8 node-seconds.
        assert!((r.node_seconds() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn decision_signature_labels_policy_actions() {
        let r = report();
        assert_eq!(r.decision_signature(), vec![(1, "remove-1".to_string())]);
        assert_eq!(r.scale_action_count(), 1);
        assert_eq!(
            r.first_action_at(0, |a| matches!(a, ScaleAction::RemoveNodes { .. })),
            Some(1_000_000_000)
        );
    }
}
