//! Per-node OLTP engine (the paper's Sundial-derived testbed, §5).
//!
//! Each compute node of the testbed contains a transaction manager:
//! two-phase locking for concurrency control with the deadlock-free
//! `NO_WAIT` policy (lock conflict ⇒ immediate abort), and two-phase
//! commit for distributed atomicity (driven by `marlin-core`'s commit
//! driver), over a WAL codec whose records the commit path appends.
//!
//! The engine's data path is a fully materialized row store
//! ([`store::DataStore`]) used by functional tests, examples, and
//! small-scale scenarios. The large simulated experiments keep no rows:
//! tuple *values* are irrelevant to the coordination behavior they
//! measure (see docs/ARCHITECTURE.md, "Cost of a request on
//! `ClusterSim`").

pub mod locks;
pub mod recovery;
pub mod store;
pub mod txn;
pub mod wal;

pub use locks::{LockMode, LockTable, LockTarget};
pub use store::{DataStore, Granule};
pub use txn::{TxnCtx, TxnState};
pub use wal::{RowWrite, TxnUpdateRecord};
