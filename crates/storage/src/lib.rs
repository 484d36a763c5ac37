//! Disaggregated storage substrate (paper §3.1, §5).
//!
//! The paper's testbed stores write-ahead logs in Azure Append Blobs and
//! pages in Azure Table Storage. This crate reproduces the two storage APIs
//! the system depends on, with the same semantics the paper requires and no
//! cloud dependency:
//!
//! - **`Append(updates)`** and **`Append(updates, LSN)`** — unconditional
//!   and conditional (compare-and-swap) log appends. The conditional form
//!   (`Append@LSN`) succeeds only if the log tail is exactly at the expected
//!   LSN, returning the current LSN on failure so the caller can refresh and
//!   retry. Azure implements this with `If-Match` ETags or
//!   `x-ms-blob-condition-appendpos-equal`; here the atomicity that the
//!   cloud service guarantees internally is provided by a mutex around the
//!   log tail, and the LSN itself plays the ETag's part: two appends see
//!   the same tag exactly when they see the same LSN.
//! - **`GetPage(pageId, LSN)`** (`GetPage@LSN`) — fetch a page that has
//!   applied all updates up to the given LSN; if the replay service lags,
//!   the request reports [`marlin_common::StorageError::ReplayLag`] (the
//!   paper's storage node waits for replay; the simulator turns this into a
//!   wait, synchronous callers can poll or drive replay directly).
//!
//! A [`replay::ReplayService`] materializes log records into the page store
//! asynchronously, following the log-as-the-database paradigm: compute
//! nodes never write back pages.

pub mod log;
pub mod page;
pub mod replay;
pub mod service;
pub mod wire;

pub use log::{AppendOutcome, LogRecord, SharedLog};
pub use page::{Page, PageStore};
pub use replay::ReplayService;
pub use service::{LogStats, StorageService};
pub use wire::{decode_page_updates, encode_page_updates, PageUpdate, PageUpdateWriter, PageWrite};
