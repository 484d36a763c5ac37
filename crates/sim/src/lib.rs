//! Deterministic discrete-event simulation (DES) kernel.
//!
//! The paper's evaluation runs on Azure VMs with real data-center and
//! cross-region networks. This crate substitutes that infrastructure with a
//! deterministic simulator: a virtual clock, a priority event queue, seeded
//! randomness (with the service-time jitter every priced stage draws),
//! latency models (including a cross-region RTT matrix), metrics series
//! and heat sketches. Protocol *logic* stays real —
//! only time is virtual — so the comparative shapes of the paper's figures
//! are preserved while runs stay reproducible and laptop-sized.

pub mod latency;
pub mod metrics;
pub mod queue;
pub mod rng;
pub mod sketch;
pub mod time;

pub use latency::{LatencyModel, RegionMatrix};
pub use metrics::{Histogram, RateSeries, Summary, TimeSeries};
pub use queue::{ActorId, EventQueue, ScheduledEvent};
pub use rng::DetRng;
pub use sketch::{CountMinSketch, HeatTracker};
pub use time::{Nanos, MICROSECOND, MILLISECOND, SECOND};
