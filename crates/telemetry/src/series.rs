//! [`MetricsSeries`]: the per-tick metrics time-series recorder.
//!
//! Where the [`crate::Tracer`] answers "what happened when", the series
//! recorder answers "how did the run's vitals evolve": once per control
//! tick the harness opens a row and the runner + driver append named
//! points — counters (integers, cumulative), gauges (floats, sampled) —
//! optionally labelled with a region. Rows live in a ring buffer like
//! the trace ring, so memory stays bounded for arbitrarily long runs
//! and the dropped-row count is reported in the export.
//!
//! All timestamps are virtual time, names are `&'static str`, and
//! floats are only ever derived from deterministic simulator state, so
//! the exported `MARLIN_METRICS` timeline is byte-identical for a fixed
//! (Scenario, seed) across runs, machines, and runners.

use crate::{json, Nanos};

/// Default ring capacity (rows) when `MARLIN_METRICS` enables the
/// recorder without an explicit `MARLIN_METRICS_TICKS` override. §6
/// preset runs take a few hundred ticks; 16k rows covers long sweeps.
pub const DEFAULT_METRICS_TICKS: usize = 1 << 14;

/// A recorded point value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PointValue {
    /// A cumulative integer counter sample.
    Int(u64),
    /// A sampled float gauge.
    Float(f64),
}

/// One named point within a tick row.
#[derive(Clone, Debug)]
pub struct MetricPoint {
    /// Static metric name (e.g. `"commits"`, `"slo_burn_rate"`).
    pub name: &'static str,
    /// Optional region label.
    pub region: Option<u16>,
    /// The sampled value.
    pub value: PointValue,
}

/// One tick's worth of points.
#[derive(Clone, Debug, Default)]
pub struct TickRow {
    /// Virtual timestamp of the tick, ns.
    pub at: Nanos,
    /// Points appended during the tick, in append order.
    pub points: Vec<MetricPoint>,
}

/// Ring-buffered per-tick metrics recorder.
///
/// Disabled recorders record nothing and allocate nothing; every
/// recording call is one branch. Enabled recorders overwrite the oldest
/// rows once the ring fills, reporting the dropped count.
#[derive(Debug)]
pub struct MetricsSeries {
    enabled: bool,
    rows: Vec<TickRow>,
    capacity: usize,
    /// Next slot to overwrite once the ring is full.
    head: usize,
    /// Total rows ever opened (≥ `rows.len()` after wrap).
    recorded: u64,
}

impl MetricsSeries {
    /// A recorder that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        MetricsSeries {
            enabled: false,
            rows: Vec::new(),
            capacity: 0,
            head: 0,
            recorded: 0,
        }
    }

    /// An enabled recorder with room for `capacity` tick rows.
    #[must_use]
    pub fn enabled(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        MetricsSeries {
            enabled: true,
            rows: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            recorded: 0,
        }
    }

    /// Enabled iff `MARLIN_METRICS` is set (to the export path); ring
    /// capacity from `MARLIN_METRICS_TICKS` when present.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("MARLIN_METRICS") {
            Ok(p) if !p.is_empty() => {
                let capacity = std::env::var("MARLIN_METRICS_TICKS")
                    .ok()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or(DEFAULT_METRICS_TICKS);
                MetricsSeries::enabled(capacity)
            }
            _ => MetricsSeries::disabled(),
        }
    }

    /// Is the recorder recording? Callers deriving non-trivial values
    /// should gate on this first.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Open a new tick row at virtual time `at`; subsequent point calls
    /// append to it. No-op when disabled.
    pub fn tick(&mut self, at: Nanos) {
        if !self.enabled {
            return;
        }
        let row = TickRow {
            at,
            points: Vec::new(),
        };
        if self.rows.len() < self.capacity {
            self.rows.push(row);
        } else {
            self.rows[self.head] = row;
            self.head = (self.head + 1) % self.capacity;
        }
        self.recorded += 1;
    }

    /// Append an integer counter point to the current tick row.
    #[inline]
    pub fn counter(&mut self, name: &'static str, value: u64) {
        self.push(name, None, PointValue::Int(value));
    }

    /// Append a region-labelled integer counter point.
    #[inline]
    pub fn counter_region(&mut self, name: &'static str, region: u16, value: u64) {
        self.push(name, Some(region), PointValue::Int(value));
    }

    /// Append a float gauge point to the current tick row.
    #[inline]
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        self.push(name, None, PointValue::Float(value));
    }

    /// Append a region-labelled float gauge point.
    #[inline]
    pub fn gauge_region(&mut self, name: &'static str, region: u16, value: f64) {
        self.push(name, Some(region), PointValue::Float(value));
    }

    fn push(&mut self, name: &'static str, region: Option<u16>, value: PointValue) {
        if !self.enabled {
            return;
        }
        // The current row is the one most recently written: the last
        // pushed slot while filling, the slot before `head` once wrapped.
        let idx = if self.rows.len() < self.capacity {
            match self.rows.len().checked_sub(1) {
                Some(i) => i,
                None => return, // no tick opened yet: drop the point
            }
        } else {
            (self.head + self.capacity - 1) % self.capacity
        };
        self.rows[idx].points.push(MetricPoint {
            name,
            region,
            value,
        });
    }

    /// Rows currently held in the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing has been recorded (or the recorder is disabled).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total tick rows ever opened, including overwritten ones.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Rows lost to ring overwrite.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.recorded - self.rows.len() as u64
    }

    /// Rows in recording order (oldest surviving first).
    pub fn rows(&self) -> impl Iterator<Item = &TickRow> {
        self.rows[self.head..]
            .iter()
            .chain(self.rows[..self.head].iter())
    }

    /// Export the timeline as a JSON document. Virtual timestamps and
    /// deterministic values make the document byte-identical for a
    /// fixed (Scenario, seed).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 256 * self.rows.len());
        json::object(&mut out, |o| {
            o.field("ticks", self.recorded)
                .field("dropped", self.dropped());
            o.arr("rows", |a| {
                for row in self.rows() {
                    a.obj(|o| {
                        o.field("at_ns", row.at);
                        o.arr("points", |a| {
                            for p in &row.points {
                                a.obj(|o| {
                                    o.field("name", p.name);
                                    if let Some(r) = p.region {
                                        o.field("region", r);
                                    }
                                    match p.value {
                                        PointValue::Int(v) => o.field("value", v),
                                        PointValue::Float(v) => o.field("value", v),
                                    };
                                });
                            }
                        });
                    });
                }
            });
        });
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, Json};

    #[test]
    fn disabled_series_records_nothing_and_never_allocates() {
        let mut s = MetricsSeries::disabled();
        s.tick(0);
        s.counter("commits", 7);
        s.gauge("p99_ms", 1.5);
        assert!(s.is_empty());
        assert_eq!(s.recorded(), 0);
        assert_eq!(s.rows.capacity(), 0);
    }

    #[test]
    fn points_before_the_first_tick_are_dropped_not_panicked() {
        let mut s = MetricsSeries::enabled(4);
        s.counter("orphan", 1);
        assert!(s.is_empty());
        s.tick(1_000);
        s.counter("commits", 2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.rows().next().map(|r| r.points.len()), Some(1));
    }

    #[test]
    fn ring_overwrites_oldest_rows_and_counts_drops() {
        let mut s = MetricsSeries::enabled(3);
        for i in 0..5u64 {
            s.tick(i * 1_000);
            s.counter("commits", i);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.recorded(), 5);
        assert_eq!(s.dropped(), 2);
        let order: Vec<Nanos> = s.rows().map(|r| r.at).collect();
        assert_eq!(order, vec![2_000, 3_000, 4_000], "oldest surviving first");
        // Points keep landing on the newest row after the wrap.
        let last_points: Vec<u64> = s
            .rows()
            .last()
            .map(|r| {
                r.points
                    .iter()
                    .map(|p| match p.value {
                        PointValue::Int(v) => v,
                        PointValue::Float(_) => 0,
                    })
                    .collect()
            })
            .unwrap_or_default();
        assert_eq!(last_points, vec![4]);
    }

    #[test]
    fn json_export_is_wellformed_and_deterministic() {
        let make = || {
            let mut s = MetricsSeries::enabled(8);
            s.tick(5_000_000_000);
            s.counter("commits", 1234);
            s.gauge("slo_burn_rate", 0.75);
            s.counter_region("region_commits", 1, 617);
            s.gauge("ratio", f64::NAN);
            s.tick(6_000_000_000);
            s.to_json()
        };
        let j = make();
        assert_eq!(j, make(), "byte-identical across runs");
        assert!(j.starts_with("{\"ticks\":2,\"dropped\":0,\"rows\":["));
        assert!(j.contains("\"at_ns\":5000000000"));
        assert!(j.contains("{\"name\":\"commits\",\"value\":1234}"));
        assert!(j.contains("{\"name\":\"slo_burn_rate\",\"value\":0.75}"));
        assert!(j.contains("{\"name\":\"region_commits\",\"region\":1,\"value\":617}"));
        assert!(j.ends_with("]}\n"));
        let v = parse_json(&j).expect("the timeline parses");
        let rows = v.get("rows").and_then(Json::as_arr).expect("rows");
        assert_eq!(rows.len(), 2);
        let points = rows[0]
            .get("points")
            .and_then(Json::as_arr)
            .expect("points");
        assert_eq!(points[2].get("region"), Some(&Json::Num(1.0)));
        assert_eq!(points[3].get("value"), Some(&Json::Null));
        assert_eq!(
            j,
            r#"{"ticks":2,"dropped":0,"rows":[{"at_ns":5000000000,"points":[{"name":"commits","value":1234},{"name":"slo_burn_rate","value":0.75},{"name":"region_commits","region":1,"value":617},{"name":"ratio","value":null}]},{"at_ns":6000000000,"points":[]}]}
"#
        );
    }

    #[test]
    fn nonfinite_gauges_export_as_null() {
        let mut s = MetricsSeries::enabled(2);
        s.tick(0);
        s.gauge("ratio", f64::NAN);
        assert!(s.to_json().contains("{\"name\":\"ratio\",\"value\":null}"));
    }
}
