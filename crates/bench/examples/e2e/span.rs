//! Benchmark-side spans around calls into the program's public functions.
//!
//! Spans nest by call order on the one benchmark thread. Every span
//! always feeds its layer's busy time, self time and call count; whether
//! the span itself is kept (for the Chrome trace) is the caller's choice,
//! so per-operation calls can keep one span in [`SAMPLE_EVERY`].

use std::time::Instant;

/// Per-operation spans are kept in full for one operation in this many.
pub const SAMPLE_EVERY: u64 = 64;

/// One kept span. Times are nanoseconds since the recorder was made.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing kept span.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one operation.
    pub op: u64,
}

/// Totals of every span recorded under one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerTotals {
    pub calls: u64,
    /// Sum of span durations.
    pub busy_ns: u64,
    /// Busy time minus the part covered by child spans.
    pub self_ns: u64,
}

struct Frame {
    name: &'static str,
    start: u64,
    children_ns: u64,
    kept: Option<usize>,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    stack: Vec<Frame>,
    spans: Vec<Span>,
    totals: Vec<(&'static str, LayerTotals)>,
    op: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            stack: Vec::new(),
            spans: Vec::new(),
            totals: Vec::new(),
            op: 0,
        }
    }

    /// Set the operation id stamped on spans entered from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Whether per-operation spans of operation `op` are kept in full.
    pub fn sampled(op: u64) -> bool {
        op.is_multiple_of(SAMPLE_EVERY)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, keep: bool) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        self.enter_at(name, keep, start);
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        self.exit_at(end);
    }

    /// Time `f` under a span.
    pub fn span<T>(&mut self, name: &'static str, keep: bool, f: impl FnOnce() -> T) -> T {
        self.enter(name, keep);
        let out = f();
        self.exit();
        out
    }

    fn enter_at(&mut self, name: &'static str, keep: bool, start: u64) {
        let kept = keep.then(|| {
            let parent = self.stack.iter().rev().find_map(|f| f.kept);
            self.spans.push(Span {
                name,
                start,
                end: start,
                parent,
                op: self.op,
            });
            self.spans.len() - 1
        });
        self.stack.push(Frame {
            name,
            start,
            children_ns: 0,
            kept,
        });
    }

    fn exit_at(&mut self, end: u64) {
        let frame = self.stack.pop().expect("exit without a matching enter");
        let busy = end - frame.start;
        assert!(
            frame.children_ns <= busy,
            "children of span {} cover {} ns of its {} ns",
            frame.name,
            frame.children_ns,
            busy
        );
        if let Some(i) = frame.kept {
            self.spans[i].end = end;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += busy;
        }
        let slot = match self.totals.iter().position(|(n, _)| *n == frame.name) {
            Some(i) => i,
            None => {
                self.totals.push((frame.name, LayerTotals::default()));
                self.totals.len() - 1
            }
        };
        let t = &mut self.totals[slot].1;
        t.calls += 1;
        t.busy_ns += busy;
        t.self_ns += busy - frame.children_ns;
    }

    pub fn totals(&self, name: &str) -> LayerTotals {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(LayerTotals::default, |(_, t)| *t)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every kept span lies inside its parent, and the children of one
    /// parent do not overlap, so their sum is at most the parent.
    pub fn check_nesting(&self) -> Result<(), String> {
        let mut covered = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                if s.start < parent.start || s.end > parent.end {
                    return Err(format!(
                        "span {i} ({}) leaves its parent {p} ({})",
                        s.name, parent.name
                    ));
                }
                covered[p] += s.end - s.start;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if covered[i] > s.end - s.start {
                return Err(format!(
                    "children of span {i} ({}) sum to {} ns > its {} ns",
                    s.name,
                    covered[i],
                    s.end - s.start
                ));
            }
        }
        Ok(())
    }

    /// Chrome trace-event JSON (`chrome://tracing`, `ui.perfetto.dev`) —
    /// the viewer `MARLIN_TRACE` artifacts load in.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.op
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self-time arithmetic on a scripted clock: nested and sibling spans.
pub fn self_test() {
    let mut r = Recorder::new(true);
    // run [0, 100] { advance [10, 40] { event [15, 25] }  observe [50, 70] }
    r.set_op(7);
    r.enter_at("run", true, 0);
    r.enter_at("advance", true, 10);
    r.enter_at("event", false, 15);
    r.exit_at(25);
    r.exit_at(40);
    r.enter_at("observe", true, 50);
    r.exit_at(70);
    r.exit_at(100);
    let t = |n| r.totals(n);
    assert_eq!((t("run").busy_ns, t("run").self_ns), (100, 50));
    assert_eq!((t("advance").busy_ns, t("advance").self_ns), (30, 20));
    assert_eq!((t("event").busy_ns, t("event").self_ns), (10, 10));
    assert_eq!((t("observe").busy_ns, t("observe").calls), (20, 1));
    assert_eq!(t("absent"), LayerTotals::default());
    // The unkept span feeds the totals but not the trace.
    let names: Vec<_> = r.spans().iter().map(|s| (s.name, s.parent, s.op)).collect();
    assert_eq!(
        names,
        [
            ("run", None, 7),
            ("advance", Some(0), 7),
            ("observe", Some(0), 7)
        ]
    );
    assert_eq!(r.check_nesting(), Ok(()));
    // A second call accumulates.
    r.enter_at("run", false, 200);
    r.exit_at(230);
    assert_eq!(
        r.totals("run"),
        LayerTotals {
            calls: 2,
            busy_ns: 130,
            self_ns: 80
        }
    );
    // A child that outlives its parent is caught.
    r.spans.push(Span {
        name: "stray",
        start: 90,
        end: 120,
        parent: Some(0),
        op: 7,
    });
    assert!(r.check_nesting().is_err());
    assert!(Recorder::sampled(0) && Recorder::sampled(128) && !Recorder::sampled(65));

    let mut off = Recorder::new(false);
    off.span("x", true, || ());
    assert!(off.spans().is_empty() && off.totals("x") == LayerTotals::default());
}
