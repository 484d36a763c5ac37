//! # Marlin — Efficient Coordination for Autoscaling Cloud DBMS
//!
//! This is the umbrella crate of the Marlin reproduction (SIGMOD 2025,
//! arXiv:2508.01931). It re-exports the workspace crates so examples and
//! integration tests can use a single dependency:
//!
//! - [`common`] — shared identifiers, key ranges, errors, configuration.
//! - [`sim`] — deterministic discrete-event simulation kernel.
//! - [`telemetry`] — deterministic observability: virtual-time tracing
//!   (`MARLIN_TRACE`), coordination-op accounting, and the sim
//!   self-profiler behind the `BENCH_*.json` perf trajectory
//!   (`MARLIN_BENCH_JSON`).
//! - [`storage`] — disaggregated storage: shared logs with conditional
//!   append (`Append@LSN`), page store (`GetPage@LSN`), log replay.
//! - [`engine`] — per-node database engine: 2PL `NO_WAIT` locking, the
//!   granule row store, the WAL codec, and row recovery from storage.
//! - [`core`] — the paper's contribution: MTable/GTable system tables,
//!   MarlinCommit, the five reconfiguration transactions, failure
//!   detection, routing, invariants, and an executable model checker.
//! - [`baselines`] — ZooKeeper-style and FoundationDB-style coordination
//!   services used as evaluation baselines.
//! - [`workload`] — YCSB and TPC-C workload generators, plus load traces
//!   for the closed-loop autoscaling scenarios.
//! - [`autoscaler`] — the closed-loop autoscaling controller: one policy
//!   stack (hold or reactive hysteresis, optionally per region and/or
//!   predictive over a linear-trend forecaster) and a hot-granule
//!   rebalance planner, actuated through the reconfiguration drivers on
//!   both runners.
//! - [`fuzz`] — deterministic scenario fuzzer (`docs/TESTING.md`):
//!   seed → randomized fault/load/churn scenario, swarm execution
//!   (`MARLIN_FUZZ_SEEDS`), automatic shrinking, and replayable repro
//!   artifacts (`MARLIN_FUZZ_REPRO`).
//! - [`cluster`] — the full simulated cloud DBMS testbed plus the
//!   unified experiment harness (`cluster::harness`): declarative
//!   `Scenario`s, the `Runner` trait over both execution backends, and
//!   the JSON-serializable `RunReport` behind every figure in the
//!   paper.
//!
//! See `README.md` for a quickstart (including the preset → figure →
//! binary table) and `docs/ARCHITECTURE.md` for the crate map, the
//! control loop, and the CPU-model guidance.

pub use marlin_autoscaler as autoscaler;
pub use marlin_baselines as baselines;
pub use marlin_cluster as cluster;
pub use marlin_common as common;
pub use marlin_core as core;
pub use marlin_engine as engine;
pub use marlin_fuzz as fuzz;
pub use marlin_sim as sim;
pub use marlin_storage as storage;
pub use marlin_telemetry as telemetry;
pub use marlin_workload as workload;
