//! The structured tracer: virtual-time spans and instants in a
//! preallocated ring buffer, exported as Chrome trace-event JSON.

use crate::{json, Micros, Nanos};

/// Default ring capacity when `MARLIN_TRACE` enables tracing without an
/// explicit `MARLIN_TRACE_EVENTS` override (~256k events, a few MB).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 18;

/// How an event renders in the trace viewer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TracePhase {
    /// A complete span (`ph:"X"`): has a duration.
    Span,
    /// A point-in-time marker (`ph:"i"`).
    Instant,
}

/// One recorded event. Fixed-size (names are `&'static str`) so the ring
/// buffer allocates once up front and recording never touches the heap.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Category (Perfetto lets you filter on it): "migration",
    /// "membership", "policy", "provision", ...
    pub cat: &'static str,
    /// Event name.
    pub name: &'static str,
    /// Span or instant.
    pub phase: TracePhase,
    /// Virtual start time, ns.
    pub start: Nanos,
    /// Virtual duration, ns (0 for instants).
    pub dur: Nanos,
    /// Up to two integer arguments; a key of `""` means unused.
    pub args: [(&'static str, i64); 2],
}

const NO_ARGS: [(&str, i64); 2] = [("", 0), ("", 0)];

/// Ring-buffered trace recorder.
///
/// Disabled tracers record nothing and allocate nothing; the per-call
/// cost is one branch. Enabled tracers overwrite the oldest events once
/// the ring fills (the dropped count is reported), so a bounded memory
/// footprint holds for arbitrarily long runs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Next slot to overwrite once the ring is full.
    head: usize,
    /// Total events ever recorded (≥ `buf.len()` after wrap).
    recorded: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            buf: Vec::new(),
            capacity: 0,
            head: 0,
            recorded: 0,
        }
    }

    /// An enabled tracer with room for `capacity` events, preallocated.
    #[must_use]
    pub fn enabled(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Tracer {
            enabled: true,
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            recorded: 0,
        }
    }

    /// Enabled iff `MARLIN_TRACE` is set (to the export path); ring
    /// capacity from `MARLIN_TRACE_EVENTS` when present.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("MARLIN_TRACE") {
            Ok(p) if !p.is_empty() => {
                let capacity = std::env::var("MARLIN_TRACE_EVENTS")
                    .ok()
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or(DEFAULT_TRACE_CAPACITY);
                Tracer::enabled(capacity)
            }
            _ => Tracer::disabled(),
        }
    }

    /// Is the tracer recording? Callers building non-trivial arguments
    /// should gate on this first.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record a complete span `[start, end)` (no-op when disabled).
    #[inline]
    pub fn span(&mut self, cat: &'static str, name: &'static str, start: Nanos, end: Nanos) {
        self.span_args(cat, name, start, end, NO_ARGS);
    }

    /// Record a complete span with arguments.
    #[inline]
    pub fn span_args(
        &mut self,
        cat: &'static str,
        name: &'static str,
        start: Nanos,
        end: Nanos,
        args: [(&'static str, i64); 2],
    ) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent {
            cat,
            name,
            phase: TracePhase::Span,
            start,
            dur: end.saturating_sub(start),
            args,
        });
    }

    /// Record an instant marker (no-op when disabled).
    #[inline]
    pub fn instant(&mut self, cat: &'static str, name: &'static str, at: Nanos) {
        self.instant_args(cat, name, at, NO_ARGS);
    }

    /// Record an instant marker with arguments.
    #[inline]
    pub fn instant_args(
        &mut self,
        cat: &'static str,
        name: &'static str,
        at: Nanos,
        args: [(&'static str, i64); 2],
    ) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent {
            cat,
            name,
            phase: TracePhase::Instant,
            start: at,
            dur: 0,
            args,
        });
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
        }
        self.recorded += 1;
    }

    /// Events currently held in the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or the tracer is disabled).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded, including overwritten ones.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events lost to ring overwrite.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.recorded - self.buf.len() as u64
    }

    /// Events in recording order (oldest surviving first).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// Export as a Chrome trace-event JSON document (the
    /// `{"traceEvents":[...]}` object form Perfetto and
    /// `chrome://tracing` load directly). Timestamps are virtual time
    /// rendered as microseconds, so the document is byte-identical for a
    /// fixed scenario + seed.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + 128 * self.buf.len());
        json::object(&mut out, |o| {
            o.field("displayTimeUnit", "ms");
            o.arr("traceEvents", |a| {
                for ev in self.events() {
                    a.obj(|o| {
                        o.field("name", ev.name).field("cat", ev.cat);
                        match ev.phase {
                            TracePhase::Span => {
                                o.field("ph", "X")
                                    .field("ts", Micros(ev.start))
                                    .field("dur", Micros(ev.dur));
                            }
                            TracePhase::Instant => {
                                o.field("ph", "i")
                                    .field("s", "g")
                                    .field("ts", Micros(ev.start));
                            }
                        }
                        o.field("pid", 1u8).field("tid", 1u8);
                        let mut used = ev.args.iter().filter(|(k, _)| !k.is_empty()).peekable();
                        if used.peek().is_some() {
                            o.obj("args", |o| {
                                for (k, v) in used {
                                    o.field(k, v);
                                }
                            });
                        }
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
    fn disabled_tracer_records_nothing_and_never_allocates() {
        let mut t = Tracer::disabled();
        t.span("cat", "ev", 0, 10);
        t.instant("cat", "mark", 5);
        assert!(t.is_empty());
        assert_eq!(t.recorded(), 0);
        assert_eq!(t.buf.capacity(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut t = Tracer::enabled(3);
        for i in 0..5u64 {
            t.instant("c", "e", i);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.recorded(), 5);
        assert_eq!(t.dropped(), 2);
        let order: Vec<Nanos> = t.events().map(|e| e.start).collect();
        assert_eq!(order, vec![2, 3, 4], "oldest surviving first");
    }

    #[test]
    fn overflow_keeps_recorded_monotone_and_dropped_exact() {
        let mut t = Tracer::enabled(4);
        let mut prev = t.recorded();
        for i in 0..25u64 {
            if i % 2 == 0 {
                t.span("c", "s", i, i + 1);
            } else {
                t.instant("c", "m", i);
            }
            assert!(t.recorded() > prev, "recorded() must grow on every record");
            prev = t.recorded();
            assert_eq!(
                t.dropped(),
                t.recorded() - t.len() as u64,
                "dropped() is exactly the overwritten count"
            );
        }
        assert_eq!(t.recorded(), 25);
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 21);
    }

    #[test]
    fn chrome_export_stays_valid_json_after_the_ring_wraps() {
        let mut t = Tracer::enabled(3);
        for i in 0..10u64 {
            t.span_args(
                "cat",
                "ev",
                i * 100,
                i * 100 + 50,
                [("i", i as i64), ("", 0)],
            );
        }
        assert!(t.dropped() > 0, "the ring must have wrapped");
        let j = t.to_chrome_json();
        assert!(j.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(j.ends_with("]}\n"));
        // Exactly the three surviving events, oldest first.
        let v = parse_json(&j).expect("the trace parses");
        let events = v.get("traceEvents").and_then(Json::as_arr).expect("events");
        assert_eq!(events.len(), 3);
        assert!(events
            .iter()
            .all(|e| e.get("name").and_then(Json::as_str) == Some("ev")));
        assert_eq!(
            events[0].get("args").and_then(|a| a.get("i")),
            Some(&Json::Num(7.0))
        );
        assert_eq!(
            j,
            r#"{"displayTimeUnit":"ms","traceEvents":[{"name":"ev","cat":"cat","ph":"X","ts":0.700,"dur":0.050,"pid":1,"tid":1,"args":{"i":7}},{"name":"ev","cat":"cat","ph":"X","ts":0.800,"dur":0.050,"pid":1,"tid":1,"args":{"i":8}},{"name":"ev","cat":"cat","ph":"X","ts":0.900,"dur":0.050,"pid":1,"tid":1,"args":{"i":9}}]}
"#
        );
        assert!(j.contains("\"ts\":0.700"));
        assert!(j.contains("\"ts\":0.900"));
        assert!(!j.contains(",,"), "no empty elements from the wrap seam");
    }

    #[test]
    fn chrome_export_is_wellformed_and_deterministic() {
        let make = || {
            let mut t = Tracer::enabled(16);
            t.span_args(
                "migration",
                "migrate",
                1_000,
                2_500,
                [("granule", 7), ("", 0)],
            );
            t.instant("membership", "commit", 3_000);
            t.to_chrome_json()
        };
        let j = make();
        assert_eq!(j, make(), "byte-identical across runs");
        assert!(j.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(j.contains("\"ph\":\"X\",\"ts\":1.000,\"dur\":1.500"));
        assert!(j.contains("\"args\":{\"granule\":7}"));
        assert!(j.contains("\"ph\":\"i\",\"s\":\"g\",\"ts\":3.000"));
        let v = parse_json(&j).expect("the trace parses");
        let events = v.get("traceEvents").and_then(Json::as_arr).expect("events");
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(1.5));
        assert_eq!(events[1].get("args"), None);
        assert_eq!(
            j,
            r#"{"displayTimeUnit":"ms","traceEvents":[{"name":"migrate","cat":"migration","ph":"X","ts":1.000,"dur":1.500,"pid":1,"tid":1,"args":{"granule":7}},{"name":"commit","cat":"membership","ph":"i","s":"g","ts":3.000,"pid":1,"tid":1}]}
"#
        );
    }
}
