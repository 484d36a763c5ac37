//! Deterministic observability for the Marlin reproduction.
//!
//! Three instruments, each independently switchable and zero-overhead
//! when off:
//!
//! - [`Tracer`] — a structured tracer recording virtual-time-stamped
//!   spans and instants into a preallocated ring buffer, exported as
//!   Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`).
//!   Enabled by setting `MARLIN_TRACE=<path>`. Because every timestamp
//!   is *virtual* time, the trace for a fixed scenario + seed is
//!   byte-identical across runs and machines.
//! - [`CoordOps`] / [`CoordBreakdown`] — the coordination-op accounting
//!   registry: the paper's scalar Meta Cost (§6.1.5) broken into
//!   per-subsystem counters (Append@LSN CAS attempts/retries, external
//!   coordination-service reads/writes, watch notifications), with the
//!   meta-cost dollars attributed across them. Always on — the counters
//!   are plain integer increments.
//! - [`Profiler`] — the sim self-profiler: wall-clock time per subsystem
//!   phase, event-queue depth stats, and virtual-seconds-per-wall-second.
//!   Enabled by setting `MARLIN_BENCH_JSON=<dir>`; its numbers are
//!   intentionally *not* deterministic (they measure the host), so the
//!   report layer omits them unless profiling was requested.
//! - [`BenchReport`] — the `BENCH_<target>.json` perf-trajectory
//!   artifact each bench target emits under `MARLIN_BENCH_JSON=<dir>`,
//!   so successive PRs can pin speedups against a recorded baseline.
//! - [`MetricsSeries`] — the per-tick metrics timeline (counters and
//!   gauges, optionally region-labelled, ring-buffered). Enabled by
//!   setting `MARLIN_METRICS=<path>`; virtual timestamps make the
//!   exported timeline byte-identical per (scenario, seed).
//! - [`LatencyHist`] — a deterministic log-bucketed latency histogram
//!   (mergeable, ≤ 1/32 relative error, exact below a small-count
//!   threshold) backing p99 derivation at cohort scale.
//! - [`json`] — the one JSON codec: the writer every artifact above (and
//!   the run report, scenario manifest, lint report and `bench-diff`
//!   verdict) is emitted through, and the reader that loads them back.
//!
//! The crate is dependency-free and knows nothing about the simulator;
//! the cluster crate owns the instrumentation points.

#![warn(missing_docs)]

mod bench_json;
mod coord;
mod hist;
pub mod json;
mod profile;
mod series;
mod trace;

pub use bench_json::{BenchReport, BenchSection};
pub use coord::{CoordBreakdown, CoordOps};
pub use hist::LatencyHist;
pub use profile::{PhaseStat, ProfileSummary, Profiler};
pub use series::{MetricPoint, MetricsSeries, PointValue, TickRow, DEFAULT_METRICS_TICKS};
pub use trace::{TraceEvent, TracePhase, Tracer, DEFAULT_TRACE_CAPACITY};

/// Virtual nanoseconds (mirrors `marlin_sim::Nanos`; redefined here so
/// the telemetry crate stays dependency-free).
pub type Nanos = u64;

/// Integer nanoseconds written as a JSON number of decimal microseconds
/// (`ts`/`dur` in the Chrome trace-event format) without going through
/// floating point, so the exported trace is bit-stable: `1234567 ns` →
/// `1234.567`.
struct Micros(Nanos);

impl json::ToJson for Micros {
    fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, "{}.{:03}", self.0 / 1_000, self.0 % 1_000);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_formatting_is_integer_only() {
        let nanos_as_micros = |ns| {
            let mut out = String::new();
            json::ToJson::write_json(&Micros(ns), &mut out);
            out
        };
        assert_eq!(nanos_as_micros(0), "0.000");
        assert_eq!(nanos_as_micros(999), "0.999");
        assert_eq!(nanos_as_micros(1_000), "1.000");
        assert_eq!(nanos_as_micros(1_234_567), "1234.567");
    }

    #[test]
    fn escaping_covers_quotes_and_control_chars() {
        let json_escape = |s: &str| {
            let mut out = String::new();
            json::ToJson::write_json(s, &mut out);
            out
        };
        assert_eq!(json_escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_escape("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_escape("\u{1f}é\r"), "\"\\u001fé\\r\"");
    }
}
