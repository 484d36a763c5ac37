//! # marlin-core — the paper's primary contribution
//!
//! Marlin consolidates cluster coordination into the database it manages
//! (§4): coordination state lives in system tables backed by shared logs in
//! disaggregated storage, and every access goes through transactions
//! committed with **MarlinCommit**, a commit protocol built on conditional
//! append (`Append@LSN`) that detects cross-node modifications.
//!
//! Layout:
//!
//! - [`records`] — the wire format of SysLog and GLog records, including
//!   the `Prepared`/`Decision` two-phase records MarlinCommit appends.
//! - [`mtable`] / [`gtable`] — the two system tables: group membership
//!   (MTable, single unowned SysLog) and granule ownership (GTable,
//!   partitioned by owner node, one GLog per node). Both materialize
//!   deterministically from their logs.
//! - [`lsn_tracker`] — each node's `H-LSN` map (last observed LSN per log).
//! - [`drivers`] — sans-io protocol state machines: [`drivers::commit`]
//!   implements Algorithm 2 (MarlinCommit), [`drivers::reconfig`]
//!   implements the five reconfiguration transactions of Table 1 /
//!   Algorithm 1. Drivers emit [`drivers::Effect`]s and consume
//!   [`drivers::Input`]s; the synchronous runtime (tests, examples)
//!   fulfills them against `marlin-storage`, and the discrete-event
//!   cluster simulator prices them in virtual time for its migrations
//!   and membership updates.
//! - [`node`] — per-node coordination state: MTable/GTable caches with
//!   validity flags, the LSN tracker, and the user-transaction ownership
//!   guard (Algorithm 1 lines 1–6).
//! - [`runtime`] — a synchronous in-process cluster runner that fulfills
//!   driver effects directly against `marlin-storage`; the functional
//!   reference implementation used by unit/integration tests and examples.
//! - [`router`] — client-side routing cache with `WrongNode` redirect
//!   handling and `ScanGTableTxn` refresh.
//! - [`invariants`] — executable checks of invariants I0–I4 (§4.5).
//! - [`model`] — an exhaustive state-space explorer mirroring the TLA+
//!   specification in Appendix B (NoDualOwnership, HasOneOwnership).

pub mod drivers;
pub mod gtable;
pub mod invariants;
pub mod lsn_tracker;
pub mod model;
pub mod mtable;
pub mod node;
pub mod records;
pub mod router;
pub mod runtime;

pub use gtable::{GTablePartition, GranuleMeta};
pub use lsn_tracker::LsnTracker;
pub use mtable::{MTable, NodeInfo};
pub use node::MarlinNode;
pub use records::{GRecord, OwnershipSwap, SysRecord};
pub use runtime::LocalCluster;
