//! Per-node OLTP engine (the paper's Sundial-derived testbed, §5).
//!
//! The pieces a compute node's transaction manager is built from:
//!
//! - [`locks`] — two-phase locking with the deadlock-free `NO_WAIT`
//!   policy (lock conflict ⇒ immediate abort).
//! - [`store`] — the fully materialized row store
//!   ([`store::DataStore`]) of the granules a node owns.
//! - [`wal`] — the page-update payload a commit appends to the WAL, and
//!   reading rows back from a page's deltas.
//! - [`recovery`] — rebuilding a granule's rows from the page store after
//!   a failover.
//!
//! The transaction itself is driven elsewhere: `marlin-core`'s
//! `LocalCluster::user_txn` holds its locks and buffered writes, and the
//! core commit driver runs two-phase commit for distributed atomicity.
//!
//! The row store serves functional tests, examples, and
//! small-scale scenarios. The large simulated experiments keep no rows:
//! tuple *values* are irrelevant to the coordination behavior they
//! measure (see docs/ARCHITECTURE.md, "Cost of a request on
//! `ClusterSim`").

pub mod locks;
pub mod recovery;
pub mod store;
pub mod wal;

pub use locks::{LockMode, LockTable, LockTarget};
pub use store::{DataStore, Granule};
pub use wal::{RowWrite, TxnUpdateRecord};
