//! The simulated cloud DBMS testbed (§5, §6.1).
//!
//! This crate wires everything together into the evaluation harness: a
//! discrete-event simulation of the paper's Azure deployment where compute
//! nodes, clients, the disaggregated storage service, and the baseline
//! coordination services (priced write pipelines) interact in virtual
//! time, while all coordination *state* (logs, LSN trackers, ownership,
//! membership) is real — the same `SharedLog` compare-and-swap and
//! `LsnTracker` machinery that `marlin-core`'s drivers are tested against.
//!
//! Layout:
//!
//! - [`params`] — every calibrated constant (latencies, service times,
//!   hardware profiles, prices), each documented against the paper's
//!   hardware (D4s/D8s v3, 2/4 Gbps, Azure storage).
//! - [`metrics`] — per-run measurement state feeding the figures.
//! - [`cost`] — the §6.1.5 cost model (DB Cost + Meta Cost).
//! - [`sim`] — the cluster simulator, one `ClusterSim` over the layers
//!   it contains: `sim/mod.rs` (state, construction, event dispatch),
//!   `sim/station.rs` (per-node CPU queueing), `sim/walk.rs` (the one
//!   transaction timeline — routing, hops, cold-cache fetches, group
//!   commit, log CAS — its booking, and the closed-loop exact clients),
//!   `sim/cohort.rs` (cohort clients over the same walk),
//!   `sim/migration.rs` (actuation, plans, migration threads; Marlin's
//!   `MigrationDriver` vs the ZooKeeper/FDB service),
//!   `sim/membership.rs` (the Figure 15 stress), `sim/protocol.rs` (the
//!   effect pricer that runs `marlin_core`'s drivers in virtual time),
//!   `sim/service.rs` (the ZooKeeper/FDB baselines as the write pipeline
//!   the simulator prices their updates through),
//!   `sim/observe.rs` (what the autoscaler sees).
//! - [`harness`] — the unified experiment API: declarative
//!   [`Scenario`]s (every §6 figure is a preset), the [`Runner`] trait
//!   implemented by both the simulator and the synchronous
//!   `LocalCluster`, the one generic [`run`] driver, and the
//!   JSON-serializable [`RunReport`] with the full controller decision
//!   log.
//! - [`report`] — plain-text result tables for the bench and example mains.
//!
//! The architecture overview — crate map, control loop, harness, region
//! axis, and CPU-model guidance — lives in `docs/ARCHITECTURE.md`.

// Everything public here is experiment-facing API; CI escalates this to
// an error via RUSTDOCFLAGS=-D warnings.
#![warn(missing_docs)]

pub mod cost;
pub mod harness;
pub mod metrics;
pub mod params;
pub mod report;
pub mod sim;

pub use cost::CostModel;
pub use harness::{run, LocalRunner, RunReport, Runner, Scenario, SimRunner};
pub use metrics::{Blame, RunMetrics, TailExemplar, TailExemplars};
pub use params::{CoordKind, CpuModel, SimParams};
pub use sim::{ClusterSim, CpuStation, PerRequestStation, Workload};
