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
//!
//! The crate is dependency-free and knows nothing about the simulator;
//! the cluster crate owns the instrumentation points.

#![warn(missing_docs)]

mod bench_json;
mod coord;
mod hist;
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

/// Minimal JSON string escaping, quotes included, shared by the exporters,
/// the run report and the scenario manifest (no serde in the offline
/// build).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite floats print as-is; NaN/inf become `null` (JSON has neither).
#[must_use]
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Format integer nanoseconds as decimal microseconds (`ts`/`dur` in the
/// Chrome trace-event format) without going through floating point, so
/// the exported trace is bit-stable: `1234567 ns` → `"1234.567"`.
#[must_use]
pub fn nanos_as_micros(ns: Nanos) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_formatting_is_integer_only() {
        assert_eq!(nanos_as_micros(0), "0.000");
        assert_eq!(nanos_as_micros(999), "0.999");
        assert_eq!(nanos_as_micros(1_000), "1.000");
        assert_eq!(nanos_as_micros(1_234_567), "1234.567");
    }

    #[test]
    fn escaping_covers_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_escape("\u{1}"), "\"\\u0001\"");
    }
}
