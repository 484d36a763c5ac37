//! `--all` and `--stability`: workloads run as child processes of this
//! executable, one after another, so that each has its own peak RSS.

use crate::catalogue::{self, END_TO_END, HOST_BOUND};
use crate::stats;
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Starts the line on which a run prints everything it measured.
pub const DETAIL_PREFIX: &str = "detail ";

/// Units of modelled results and counts: for a fixed seed they must be
/// the same number on every run.
const EXACT_UNITS: [&str; 8] = [
    "count",
    "ratio",
    "B",
    "B/B",
    "virt_s",
    "virt_ms",
    "txn/virt_s",
    "usd",
];

fn child(workload: &str, args: &Args) -> Command {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload]);
    if let Some(seed) = args.seed {
        cmd.args(["--seed", &seed.to_string()]);
    }
    if let Some(seconds) = args.seconds {
        cmd.args(["--seconds", &seconds.to_string()]);
    }
    cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
    cmd
}

pub fn run_all(workloads: &[&str], args: &Args) -> ExitCode {
    let mut failed = Vec::new();
    for &w in workloads {
        // `status` waits for the child to end.
        match child(w, args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("{w}: {status}")),
            Err(e) => failed.push(format!("{w}: cannot start: {e}")),
        }
    }
    if failed.is_empty() {
        println!("\nall {} workloads passed their checks", workloads.len());
        ExitCode::SUCCESS
    } else {
        println!("\nFAILED: {}", failed.join("; "));
        ExitCode::FAILURE
    }
}

/// Parse a detail line's flat `{"name": number, ...}` object.
fn parse_detail(stdout: &str) -> Option<BTreeMap<String, f64>> {
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))?;
    let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut out = BTreeMap::new();
    for field in body.split(", ").filter(|f| !f.is_empty()) {
        let (key, value) = field.split_once(": ")?;
        let key = key.strip_prefix('"')?.strip_suffix('"')?;
        out.insert(key.to_string(), value.parse().ok()?);
    }
    Some(out)
}

/// How a metric is judged across repeated runs of one seed.
enum Gate {
    /// Spread ÷ median must stay within [`HOST_BOUND`].
    Bounded,
    /// Every run must report the same number.
    Exact,
    /// Reported only: a per-layer host time has no bound.
    None,
}

fn gate_of(name: &str) -> Gate {
    let Some(def) = catalogue::metric(name) else {
        return Gate::None;
    };
    let end_to_end = END_TO_END.iter().any(|(d, _)| d.name == name)
        || catalogue::headline().iter().any(|h| h.name == name);
    if EXACT_UNITS.contains(&def.unit) {
        Gate::Exact
    } else if end_to_end {
        // One seed repeated: the issue's bound, also for the metrics the
        // driver gates across seeds with a wider one.
        Gate::Bounded
    } else {
        Gate::None
    }
}

/// Run each workload `runs` times and judge every metric's spread.
pub fn stability(workloads: &[&str], runs: u32, args: &Args) -> ExitCode {
    let mut ok = true;
    for &w in workloads {
        println!("\n== {w}: {runs} runs ==");
        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for run in 0..runs {
            let output = match child(w, args).output() {
                Ok(output) => output,
                Err(e) => {
                    println!("run {run}: cannot start: {e}");
                    ok = false;
                    continue;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            if !output.status.success() {
                println!("run {run}: {}\n{stdout}", output.status);
                ok = false;
            }
            match parse_detail(&stdout) {
                Some(detail) => {
                    for (name, value) in detail {
                        samples.entry(name).or_default().push(value);
                    }
                }
                None => {
                    println!("run {run}: no detail line");
                    ok = false;
                }
            }
        }
        println!(
            "  {:<46} {:>14} {:>14} {:>14} {:>9}  verdict",
            "metric", "min", "median", "max", "spread"
        );
        for (name, values) in &samples {
            let [q1, _, q3] = stats::quartiles(values);
            let median = stats::median(values);
            let spread = if median == 0.0 {
                0.0
            } else {
                (q3 - q1) / median.abs()
            };
            let (min, max) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let verdict = match gate_of(name) {
                Gate::Exact if min == max => "exact".to_string(),
                Gate::Exact => {
                    ok = false;
                    "NOT EXACT".to_string()
                }
                Gate::Bounded if spread <= HOST_BOUND => {
                    format!("within {:.0} %", HOST_BOUND * 100.0)
                }
                Gate::Bounded => {
                    ok = false;
                    format!("unresolved: over {:.0} %", HOST_BOUND * 100.0)
                }
                Gate::None => String::new(),
            };
            println!(
                "  {name:<46} {min:>14.4} {median:>14.4} {max:>14.4} {:>8.2}%  {verdict}",
                spread * 100.0
            );
        }
    }
    if ok {
        println!("\nstable: every gated metric is within its bound, every exact one identical");
        ExitCode::SUCCESS
    } else {
        println!("\nNOT STABLE");
        ExitCode::FAILURE
    }
}
