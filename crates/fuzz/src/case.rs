//! The plain-data fuzz case: every generation choice as a value.
//!
//! A [`FuzzCase`] is the *genotype* of one fuzzed run — small integers
//! and event lists, no trait objects — so it can be (a) built from a
//! seed, (b) serialized into a replayable repro artifact, (c) shrunk
//! field by field, and (d) lowered into the harness's [`Scenario`] for
//! execution. Everything the run does is a deterministic function of
//! this struct.

use marlin_autoscaler::ScaleAction;
use marlin_cluster::harness::{Fault, Scenario};
use marlin_cluster::params::{CoordKind, CpuModel};
use marlin_cluster::sim::Workload;
use marlin_common::{NodeId, RegionId};
use marlin_sim::Nanos;
use marlin_workload::LoadTrace;

/// Nanoseconds per millisecond — the case stores times in ms to keep
/// repro files human-readable.
pub const MS: Nanos = 1_000_000;

/// Which execution backend the case runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunnerKind {
    /// The discrete-event `ClusterSim` (queueing, faults, churn).
    Sim,
    /// The synchronous `LocalCluster` (real reconfiguration
    /// transactions, I0–I4 checked after every step).
    Local,
}

/// Which scaling policy closes the loop, if any.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// Script-only run: the generated events are the whole schedule.
    None,
    /// Reactive thresholds with hysteresis between the node bounds.
    Reactive {
        /// Minimum live nodes.
        min: u32,
        /// Maximum live nodes.
        max: u32,
    },
    /// Forecast-driven proactive sizing between the node bounds.
    Predictive {
        /// Minimum live nodes.
        min: u32,
        /// Maximum live nodes.
        max: u32,
    },
}

/// One generated schedule entry (scripted action or fault).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FuzzEvent {
    /// Crash the node (no-op if dead/unknown — both runners guard).
    Crash {
        /// Victim node id.
        node: u32,
    },
    /// Scripted scale-out of `count` nodes.
    AddNodes {
        /// Nodes to add.
        count: u32,
    },
    /// Scripted scale-in of the listed nodes (guarded against emptying
    /// the membership).
    RemoveNodes {
        /// Victim node ids.
        nodes: Vec<u32>,
    },
    /// Region latency spike: every hop touching the region pays extra
    /// one-way latency for the duration.
    LatencySpike {
        /// Degraded region.
        region: u16,
        /// Extra one-way latency, ms.
        extra_ms: u64,
        /// Duration, ms.
        dur_ms: u64,
    },
    /// Region partition: cross-region hops to/from the region stall for
    /// the duration.
    Partition {
        /// Partitioned region.
        region: u16,
        /// Duration, ms.
        dur_ms: u64,
    },
    /// One-shot provisioning-lead jitter on the next scale-out order.
    LeadJitter {
        /// Extra lead, ms.
        extra_ms: u64,
    },
}

/// A scheduled [`FuzzEvent`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimedEvent {
    /// Virtual time of the event, ms.
    pub at_ms: u64,
    /// The event.
    pub event: FuzzEvent,
}

/// Every generation choice of one fuzzed run.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzCase {
    /// The seed the case was generated from (also the scenario seed).
    pub seed: u64,
    /// Execution backend.
    pub runner: RunnerKind,
    /// Coordination backend (always Marlin on the local runner).
    pub backend: CoordKind,
    /// CPU congestion model.
    pub cpu_model: CpuModel,
    /// Scaling policy, if any.
    pub policy: PolicyKind,
    /// Granules the workload spans.
    pub granules: u64,
    /// Nodes at t=0.
    pub initial_nodes: u32,
    /// Migration worker threads per new/drained node.
    pub threads_per_node: u32,
    /// Placement regions (1, or 4 = the paper's geo deployment).
    pub regions: u16,
    /// End of virtual time, ms.
    pub horizon_ms: u64,
    /// Control-loop cadence, ms.
    pub control_interval_ms: u64,
    /// Observation window, ms.
    pub observe_window_ms: u64,
    /// Provisioning lead time, ms.
    pub provision_lead_ms: u64,
    /// Client-count trace: `(at_ms, clients)` steps.
    pub trace: Vec<(u64, u32)>,
    /// Per-region traces (empty, or one per region — geo cases only).
    pub region_traces: Vec<Vec<(u64, u32)>>,
    /// Membership churn stress: `(virtual members, period_ms)`.
    pub membership_stress: Option<(u32, u64)>,
    /// The fault/churn schedule, sorted by time.
    pub events: Vec<TimedEvent>,
}

fn trace_from(steps: &[(u64, u32)]) -> LoadTrace {
    LoadTrace::steps(steps.iter().map(|&(t, c)| (t * MS, c)).collect())
}

impl FuzzCase {
    /// Lower the case into the harness [`Scenario`] it describes. Pure:
    /// the same case always builds a byte-identical scenario (the
    /// determinism the replay/shrink cycle rests on).
    #[must_use]
    pub fn build_scenario(&self) -> Scenario {
        let mut s = Scenario::new(format!("fuzz-{}", self.seed))
            .backend(self.backend)
            .workload(Workload::ycsb(self.granules))
            .seed(self.seed)
            .cpu_model(self.cpu_model);
        if self.regions > 1 {
            s = s.geo();
        }
        s = s
            .initial_nodes(self.initial_nodes)
            .threads_per_node(self.threads_per_node)
            .control_interval(self.control_interval_ms * MS)
            .observe_window(self.observe_window_ms * MS)
            .provision_lead_time(self.provision_lead_ms * MS)
            .duration(self.horizon_ms * MS)
            .trace(trace_from(&self.trace));
        if !self.region_traces.is_empty() {
            s = s.region_traces(self.region_traces.iter().map(|t| trace_from(t)).collect());
        }
        if let Some((members, period_ms)) = self.membership_stress {
            s = s.membership_stress(members, period_ms * MS);
        }
        let policy = match self.policy {
            PolicyKind::None => None,
            PolicyKind::Reactive { min, max } => Some(s.reactive_policy(min, max)),
            PolicyKind::Predictive { min, max } => Some(s.predictive_policy(min, max)),
        };
        if let Some(p) = policy {
            s = s.policy(p);
        }
        let mut faults: Vec<(Nanos, Fault)> = Vec::new();
        for ev in &self.events {
            let at = ev.at_ms * MS;
            match &ev.event {
                FuzzEvent::Crash { node } => faults.push((at, Fault::Crash(NodeId(*node)))),
                FuzzEvent::AddNodes { count } => {
                    s = s.action(
                        at,
                        ScaleAction::AddNodes {
                            count: *count,
                            region: None,
                        },
                    );
                }
                FuzzEvent::RemoveNodes { nodes } => {
                    s = s.action(
                        at,
                        ScaleAction::RemoveNodes {
                            victims: nodes.iter().map(|&n| NodeId(n)).collect(),
                        },
                    );
                }
                FuzzEvent::LatencySpike {
                    region,
                    extra_ms,
                    dur_ms,
                } => faults.push((
                    at,
                    Fault::RegionLatencySpike {
                        region: RegionId(*region),
                        extra: extra_ms * MS,
                        until: at + dur_ms * MS,
                    },
                )),
                FuzzEvent::Partition { region, dur_ms } => faults.push((
                    at,
                    Fault::RegionPartition {
                        region: RegionId(*region),
                        until: at + dur_ms * MS,
                    },
                )),
                FuzzEvent::LeadJitter { extra_ms } => faults.push((
                    at,
                    Fault::ProvisionLeadJitter {
                        extra: extra_ms * MS,
                    },
                )),
            }
        }
        faults.sort_by_key(|&(t, _)| t);
        s.faults(faults)
    }

    // -- repro artifact -----------------------------------------------------

    /// Serialize the case into the line-oriented repro format: a header,
    /// `key=value` lines, and `#`-prefixed comment lines carrying the
    /// scenario manifest for humans. [`FuzzCase::from_repro`] round-trips
    /// it exactly.
    #[must_use]
    pub fn to_repro(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("marlin-fuzz-repro v1\n");
        out.push_str(&format!(
            "# manifest: {}\n",
            self.build_scenario().manifest_json()
        ));
        out.push_str(&format!("seed={}\n", self.seed));
        out.push_str(&format!(
            "runner={}\n",
            match self.runner {
                RunnerKind::Sim => "sim",
                RunnerKind::Local => "local",
            }
        ));
        out.push_str(&format!(
            "backend={}\n",
            match self.backend {
                CoordKind::Marlin => "marlin",
                CoordKind::ZkSmall => "zk-small",
                CoordKind::ZkLarge => "zk-large",
                CoordKind::Fdb => "fdb",
            }
        ));
        out.push_str(&format!(
            "cpu={}\n",
            match self.cpu_model {
                CpuModel::Analytic => "analytic",
                CpuModel::PerRequest => "per-request",
            }
        ));
        out.push_str(&format!(
            "policy={}\n",
            match self.policy {
                PolicyKind::None => "none".to_string(),
                PolicyKind::Reactive { min, max } => format!("reactive:{min}:{max}"),
                PolicyKind::Predictive { min, max } => format!("predictive:{min}:{max}"),
            }
        ));
        out.push_str(&format!("granules={}\n", self.granules));
        out.push_str(&format!("nodes={}\n", self.initial_nodes));
        out.push_str(&format!("threads={}\n", self.threads_per_node));
        out.push_str(&format!("regions={}\n", self.regions));
        out.push_str(&format!("horizon_ms={}\n", self.horizon_ms));
        out.push_str(&format!("control_ms={}\n", self.control_interval_ms));
        out.push_str(&format!("observe_ms={}\n", self.observe_window_ms));
        out.push_str(&format!("lead_ms={}\n", self.provision_lead_ms));
        if let Some((members, period_ms)) = self.membership_stress {
            out.push_str(&format!("membership={members}:{period_ms}\n"));
        }
        out.push_str(&format!("trace={}\n", fmt_steps(&self.trace)));
        for (r, t) in self.region_traces.iter().enumerate() {
            out.push_str(&format!("rtrace{r}={}\n", fmt_steps(t)));
        }
        for ev in &self.events {
            let body = match &ev.event {
                FuzzEvent::Crash { node } => format!("crash:{node}"),
                FuzzEvent::AddNodes { count } => format!("add:{count}"),
                FuzzEvent::RemoveNodes { nodes } => {
                    let ids: Vec<String> = nodes.iter().map(u32::to_string).collect();
                    format!("remove:{}", ids.join("+"))
                }
                FuzzEvent::LatencySpike {
                    region,
                    extra_ms,
                    dur_ms,
                } => format!("spike:{region}:{extra_ms}:{dur_ms}"),
                FuzzEvent::Partition { region, dur_ms } => {
                    format!("partition:{region}:{dur_ms}")
                }
                FuzzEvent::LeadJitter { extra_ms } => format!("lead:{extra_ms}"),
            };
            out.push_str(&format!("event={}:{body}\n", ev.at_ms));
        }
        out
    }

    /// Parse a repro artifact produced by [`FuzzCase::to_repro`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_repro(text: &str) -> Result<FuzzCase, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some("marlin-fuzz-repro v1") => {}
            other => return Err(format!("bad header: {other:?}")),
        }
        let mut case = FuzzCase {
            seed: 0,
            runner: RunnerKind::Sim,
            backend: CoordKind::Marlin,
            cpu_model: CpuModel::Analytic,
            policy: PolicyKind::None,
            granules: 100,
            initial_nodes: 2,
            threads_per_node: 4,
            regions: 1,
            horizon_ms: 30_000,
            control_interval_ms: 1_000,
            observe_window_ms: 2_000,
            provision_lead_ms: 0,
            trace: vec![(0, 0)],
            region_traces: Vec::new(),
            membership_stress: None,
            events: Vec::new(),
        };
        let mut region_traces: Vec<(usize, Vec<(u64, u32)>)> = Vec::new();
        for line in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("not key=value: {line:?}"))?;
            match key {
                "seed" => case.seed = parse_u64(key, value)?,
                "runner" => {
                    case.runner = match value {
                        "sim" => RunnerKind::Sim,
                        "local" => RunnerKind::Local,
                        _ => return Err(format!("unknown runner {value:?}")),
                    }
                }
                "backend" => {
                    case.backend = match value {
                        "marlin" => CoordKind::Marlin,
                        "zk-small" => CoordKind::ZkSmall,
                        "zk-large" => CoordKind::ZkLarge,
                        "fdb" => CoordKind::Fdb,
                        _ => return Err(format!("unknown backend {value:?}")),
                    }
                }
                "cpu" => {
                    case.cpu_model = match value {
                        "analytic" => CpuModel::Analytic,
                        "per-request" => CpuModel::PerRequest,
                        _ => return Err(format!("unknown cpu model {value:?}")),
                    }
                }
                "policy" => {
                    case.policy = if value == "none" {
                        PolicyKind::None
                    } else {
                        let parts: Vec<&str> = value.split(':').collect();
                        if parts.len() != 3 {
                            return Err(format!("bad policy {value:?}"));
                        }
                        let min = parse_u64("policy min", parts[1])? as u32;
                        let max = parse_u64("policy max", parts[2])? as u32;
                        match parts[0] {
                            "reactive" => PolicyKind::Reactive { min, max },
                            "predictive" => PolicyKind::Predictive { min, max },
                            _ => return Err(format!("unknown policy {value:?}")),
                        }
                    }
                }
                "granules" => case.granules = parse_u64(key, value)?,
                "nodes" => case.initial_nodes = parse_u64(key, value)? as u32,
                "threads" => case.threads_per_node = parse_u64(key, value)? as u32,
                "regions" => case.regions = parse_u64(key, value)? as u16,
                "horizon_ms" => case.horizon_ms = parse_u64(key, value)?,
                "control_ms" => case.control_interval_ms = parse_u64(key, value)?,
                "observe_ms" => case.observe_window_ms = parse_u64(key, value)?,
                "lead_ms" => case.provision_lead_ms = parse_u64(key, value)?,
                "membership" => {
                    let (m, p) = value
                        .split_once(':')
                        .ok_or_else(|| format!("bad membership {value:?}"))?;
                    case.membership_stress =
                        Some((parse_u64("members", m)? as u32, parse_u64("period", p)?));
                }
                "trace" => case.trace = parse_steps(value)?,
                "event" => case.events.push(parse_event(value)?),
                _ if key.starts_with("rtrace") => {
                    let r: usize = key["rtrace".len()..]
                        .parse()
                        .map_err(|_| format!("bad region trace key {key:?}"))?;
                    region_traces.push((r, parse_steps(value)?));
                }
                _ => return Err(format!("unknown key {key:?}")),
            }
        }
        region_traces.sort_by_key(|&(r, _)| r);
        case.region_traces = region_traces.into_iter().map(|(_, t)| t).collect();
        Ok(case)
    }
}

fn fmt_steps(steps: &[(u64, u32)]) -> String {
    let cells: Vec<String> = steps.iter().map(|&(t, c)| format!("{t}:{c}")).collect();
    cells.join(",")
}

fn parse_u64(key: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{key}: not a number: {value:?}"))
}

fn parse_steps(value: &str) -> Result<Vec<(u64, u32)>, String> {
    value
        .split(',')
        .map(|cell| {
            let (t, c) = cell
                .split_once(':')
                .ok_or_else(|| format!("bad trace step {cell:?}"))?;
            Ok((
                parse_u64("step time", t)?,
                parse_u64("step count", c)? as u32,
            ))
        })
        .collect()
}

fn parse_event(value: &str) -> Result<TimedEvent, String> {
    let (at, body) = value
        .split_once(':')
        .ok_or_else(|| format!("bad event {value:?}"))?;
    let at_ms = parse_u64("event time", at)?;
    let parts: Vec<&str> = body.split(':').collect();
    let event = match parts[0] {
        "crash" if parts.len() == 2 => FuzzEvent::Crash {
            node: parse_u64("crash node", parts[1])? as u32,
        },
        "add" if parts.len() == 2 => FuzzEvent::AddNodes {
            count: parse_u64("add count", parts[1])? as u32,
        },
        "remove" if parts.len() == 2 => FuzzEvent::RemoveNodes {
            nodes: parts[1]
                .split('+')
                .map(|n| Ok(parse_u64("remove node", n)? as u32))
                .collect::<Result<Vec<u32>, String>>()?,
        },
        "spike" if parts.len() == 4 => FuzzEvent::LatencySpike {
            region: parse_u64("spike region", parts[1])? as u16,
            extra_ms: parse_u64("spike extra", parts[2])?,
            dur_ms: parse_u64("spike duration", parts[3])?,
        },
        "partition" if parts.len() == 3 => FuzzEvent::Partition {
            region: parse_u64("partition region", parts[1])? as u16,
            dur_ms: parse_u64("partition duration", parts[2])?,
        },
        "lead" if parts.len() == 2 => FuzzEvent::LeadJitter {
            extra_ms: parse_u64("lead extra", parts[1])?,
        },
        _ => return Err(format!("unknown event {body:?}")),
    };
    Ok(TimedEvent { at_ms, event })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_case() -> FuzzCase {
        FuzzCase {
            seed: 99,
            runner: RunnerKind::Sim,
            backend: CoordKind::ZkSmall,
            cpu_model: CpuModel::PerRequest,
            policy: PolicyKind::Reactive { min: 2, max: 6 },
            granules: 300,
            initial_nodes: 3,
            threads_per_node: 4,
            regions: 4,
            horizon_ms: 25_000,
            control_interval_ms: 2_000,
            observe_window_ms: 4_000,
            provision_lead_ms: 3_000,
            trace: vec![(0, 20), (8_000, 60), (18_000, 20)],
            region_traces: vec![
                vec![(0, 10)],
                vec![(0, 10), (9_000, 40)],
                vec![(0, 10)],
                vec![(0, 10)],
            ],
            membership_stress: Some((8, 1_000)),
            events: vec![
                TimedEvent {
                    at_ms: 5_000,
                    event: FuzzEvent::Crash { node: 1 },
                },
                TimedEvent {
                    at_ms: 7_000,
                    event: FuzzEvent::LatencySpike {
                        region: 2,
                        extra_ms: 40,
                        dur_ms: 5_000,
                    },
                },
                TimedEvent {
                    at_ms: 9_000,
                    event: FuzzEvent::Partition {
                        region: 1,
                        dur_ms: 2_000,
                    },
                },
                TimedEvent {
                    at_ms: 11_000,
                    event: FuzzEvent::RemoveNodes { nodes: vec![2, 3] },
                },
                TimedEvent {
                    at_ms: 13_000,
                    event: FuzzEvent::LeadJitter { extra_ms: 4_000 },
                },
                TimedEvent {
                    at_ms: 15_000,
                    event: FuzzEvent::AddNodes { count: 2 },
                },
            ],
        }
    }

    #[test]
    fn repro_round_trips_exactly() {
        let case = sample_case();
        let text = case.to_repro();
        let parsed = FuzzCase::from_repro(&text).expect("parses");
        assert_eq!(parsed, case);
        // And serializing the parse is byte-identical.
        assert_eq!(parsed.to_repro(), text);
    }

    #[test]
    fn build_scenario_is_pure() {
        let case = sample_case();
        let a = case.build_scenario().manifest_json();
        let b = case.build_scenario().manifest_json();
        assert_eq!(a, b);
        assert!(a.contains("\"faults\""));
        assert!(a.contains("latency_spike"));
    }

    #[test]
    fn default_engine_knobs_are_omitted_from_the_repro() {
        // Fuzz cases run the exact engine, so a repro names no engine...
        let text = sample_case().to_repro();
        assert!(!text.contains("engine=") && !text.contains("sketch="));
        // ...and an artifact that still carries the retired keys is
        // refused rather than silently run on a different engine.
        for key in ["engine=cohort", "sketch=on"] {
            let old = format!("{text}{key}\n");
            let err = FuzzCase::from_repro(&old).expect_err(key);
            assert!(err.starts_with("unknown key"), "{key}: {err}");
        }
    }

    #[test]
    fn malformed_repros_are_rejected() {
        assert!(FuzzCase::from_repro("").is_err());
        assert!(FuzzCase::from_repro("marlin-fuzz-repro v2\n").is_err());
        assert!(FuzzCase::from_repro("marlin-fuzz-repro v1\nseed=x\n").is_err());
        assert!(FuzzCase::from_repro("marlin-fuzz-repro v1\nevent=5:warp:1\n").is_err());
    }
}
