//! `e2e`: the repository's benchmark. One command runs one workload in
//! one process on one thread, prints every metric by name with its unit,
//! checks the program's outputs, and ends with one JSON line for the
//! driver. See `README.md` beside this file.

mod catalogue;
mod children;
mod fuzz_workload;
mod local_workload;
mod measure;
mod probes;
mod sim_workloads;
mod span;
mod stats;
mod timed;

use catalogue::{MetricSet, END_TO_END, PER_LAYER};
use measure::{Ctx, Outcome};
use sim_workloads::SimWorkload;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
usage: e2e --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--trace-out <file>]
       e2e --all            [--seed <u64>] [--seconds <n>] [--trace <0|1>]
       e2e (--workload <name> | --all) --stability <n> [--seed <u64>] [--seconds <n>]
       e2e --self-test | --manifest";

fn usage() -> String {
    format!(
        "{USAGE}\n--seed defaults to {}; {} is the held-out seed",
        catalogue::DEFAULT_SEED,
        catalogue::HELD_OUT_SEED
    )
}

/// Environment variables that switch the program's own telemetry on and
/// would make an untraced run a traced one.
const TELEMETRY_ENV: [&str; 4] = [
    "MARLIN_TRACE",
    "MARLIN_METRICS",
    "MARLIN_BENCH_JSON",
    "MARLIN_REPORT_JSON",
];

#[derive(Debug, Default)]
pub struct Args {
    workload: Option<String>,
    all: bool,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<String>,
    stability: Option<u32>,
    self_test: bool,
    manifest: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--all" => args.all = true,
            "--seed" => {
                let v = value()?;
                args.seed = Some(v.parse().map_err(|_| format!("--seed {v}: not a u64"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {v}: outside (0, 60]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?),
            "--stability" => {
                let v = value()?;
                let n: u32 = v
                    .parse()
                    .map_err(|_| format!("--stability {v}: not a count"))?;
                if n < 2 {
                    return Err("--stability needs at least 2 runs".into());
                }
                args.stability = Some(n);
            }
            "--self-test" => args.self_test = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if catalogue::workload(w).is_none() {
            let names: Vec<&str> = catalogue::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {w}; there are {}",
                names.join(", ")
            ));
        }
    }
    if args.workload.is_some() && args.all {
        return Err("--workload and --all exclude each other".into());
    }
    Ok(args)
}

/// The guards examples cannot get from `cargo test`: the arithmetic
/// checks itself at the start of every invocation.
fn self_test() {
    stats::self_test();
    span::self_test();
    catalogue::self_test();
}

/// `BENCHMARK.json` in the working directory, when there is one, must be
/// the catalogue written out.
fn check_manifest() -> Result<(), String> {
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) if text != catalogue::manifest() => Err(
            "BENCHMARK.json differs from the benchmark's catalogue; rewrite it with --manifest"
                .into(),
        ),
        _ => Ok(()),
    }
}

/// The commit the working directory is at, read from `.git` without
/// spawning anything; a checkout that is no repository has none.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".into()
    } else {
        rev.chars().take(12).collect()
    }
}

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    let mut out = match name {
        "sim_scaleout_exact" => sim_workloads::run(SimWorkload::ScaleoutExact, ctx),
        "sim_geo_perrequest" => sim_workloads::run(SimWorkload::GeoPerRequest, ctx),
        "sim_cohort_million" => sim_workloads::run(SimWorkload::CohortMillion, ctx),
        "local_commit_mix" => local_workload::run(ctx),
        "fuzz_swarm" => fuzz_workload::run(ctx),
        other => unreachable!("parse_args admitted workload {other}"),
    };
    if ctx.trace {
        for (metric, value) in probes::run(name, out.last_observation.as_ref()).iter() {
            out.values.set(metric, value);
        }
    }
    out
}

fn print_metric(values: &MetricSet, def: &catalogue::MetricDef, note: &str) {
    println!(
        "  {:<46} {:>18} {:<10} {note}",
        def.name,
        format_value(values.get(def.name)),
        def.unit
    );
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.5}")
    }
}

/// On `local_commit_mix`: what the probes say a read-write transaction
/// should cost, beside what it does cost.
fn print_rw_estimate(values: &MetricSet) {
    // Calls one committed 16-operation transaction makes into each
    // probed primitive: 2 locks per operation; one commit driver, one
    // conditional append, one suffix read and one own-GTable refresh.
    let parts = [
        ("engine.locks.acquire_release_ns", 32.0),
        ("core.commit_driver.1pc_ns", 1.0),
        ("storage.log.append_ok_ns", 1.0),
        ("storage.log.read_after_ns", 1.0),
        ("core.node.refresh_own_gtable_ns", 1.0),
    ];
    println!("\nread-write user_txn, probe estimate against measurement:");
    let mut estimate_ns = 0.0;
    for (name, calls) in parts {
        let ns = values.get(name) * calls;
        estimate_ns += ns;
        println!("  {calls:>4} x {name:<40} = {:>10.3} us", ns / 1e3);
    }
    let measured = values.get("txn_rw_p50_us");
    let estimate = estimate_ns / 1e3;
    println!("  estimate {estimate:.3} us; measured txn_rw_p50_us {measured:.3} us; unexplained {:.3} us ({:.1} %)",
        measured - estimate,
        (measured - estimate) / measured * 100.0
    );
    println!(
        "  of the refresh, 2 x core.gtable.owned_by_ns = {:.3} us; txn_ro_p50_us {:.3} us has no commit path",
        2.0 * values.get("core.gtable.owned_by_ns") / 1e3,
        values.get("txn_ro_p50_us")
    );
}

fn print_report(name: &str, ctx: &Ctx, out: &Outcome) {
    println!("\nend-to-end metrics (untraced iterations):");
    for (def, bound) in &END_TO_END {
        print_metric(
            &out.values,
            def,
            &format!("driver bound {:.0} %", bound * 100.0),
        );
    }
    for def in catalogue::headline() {
        if out.values.get(def.name) != 0.0 {
            print_metric(&out.values, def, "");
        }
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        out.attempted, out.failed
    );
    println!("\ntimings (median, quartiles, highest percentile with >= 10 samples beyond it):");
    for t in &out.timings {
        let s = &t.summary;
        let tail = s
            .tail
            .map_or(String::new(), |(p, v)| format!("  p{p} {v:.6}"));
        println!(
            "  {:<24} p50 {:.6}  q1 {:.6}  q3 {:.6}  min {:.6}{tail}  {}  n={}",
            t.name, s.p50, s.q1, s.q3, s.min, t.unit, s.n
        );
    }
    if ctx.trace {
        println!("\nper-layer metrics (traced iterations and probes):");
        let layers = &PER_LAYER[..PER_LAYER.len() - catalogue::headline().len()];
        // A workload sets the rows of the layers it enters and of the
        // probes that predict for it; the rest are 0 in the driver's line.
        for def in layers.iter().filter(|d| out.values.is_set(d.name)) {
            print_metric(&out.values, def, "");
        }
        if name == "local_commit_mix" {
            print_rw_estimate(&out.values);
        }
    }
    println!();
    for note in &out.notes {
        println!("note: {note}");
    }
    for failure in &out.failures {
        println!("CHECK FAILED: {failure}");
    }
    println!(
        "checks: {}",
        if out.failures.is_empty() {
            "all passed"
        } else {
            "FAILED"
        }
    );
}

fn json_metrics<'a>(
    values: &MetricSet,
    defs: impl Iterator<Item = &'a catalogue::MetricDef>,
) -> String {
    let fields: Vec<String> = defs
        .map(|d| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                values.get(d.name),
                d.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    for var in TELEMETRY_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!("e2e: unset {var}: it switches the program's own telemetry on");
            return ExitCode::from(2);
        }
    }
    let ctx = Ctx {
        seed: args.seed.unwrap_or(catalogue::DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(catalogue::RUN_SECONDS as f64),
        trace: args.trace,
    };
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "e2e workload {name}  seed {}  seconds {}  trace {}  git {}  nproc {threads}  benchmark threads 1",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        git_rev()
    );
    let started = Instant::now();
    let out = run_workload(name, &ctx);
    print_report(name, &ctx, &out);
    println!("total {:.1} s", started.elapsed().as_secs_f64());

    if let (Some(path), Some(trace)) = (&args.trace_out, &out.chrome_trace) {
        match std::fs::write(path, trace) {
            Ok(()) => println!("wrote Chrome trace to {path}"),
            Err(e) => {
                eprintln!("e2e: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    // Everything measured, for --stability; then the driver's line.
    let detail: Vec<String> = out
        .values
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{}{{{}}}", children::DETAIL_PREFIX, detail.join(", "));
    let correct = out.failures.is_empty() && out.failed == 0;
    let metrics = if ctx.trace {
        json_metrics(&out.values, PER_LAYER.iter())
    } else {
        json_metrics(&out.values, END_TO_END.iter().map(|(d, _)| d))
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted.max(1),
        out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    self_test();
    if args.self_test {
        println!("self-test passed");
        return ExitCode::SUCCESS;
    }
    if args.manifest {
        print!("{}", catalogue::manifest());
        return ExitCode::SUCCESS;
    }
    if let Err(e) = check_manifest() {
        eprintln!("e2e: {e}");
        return ExitCode::from(2);
    }
    let selected: Vec<&str> = match (&args.workload, args.all) {
        (Some(w), _) => vec![w.as_str()],
        (None, true) => catalogue::WORKLOADS.iter().map(|w| w.name).collect(),
        (None, false) => {
            eprintln!("e2e: name a workload or pass --all\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match (args.stability, args.all) {
        (Some(runs), _) => children::stability(&selected, runs, &args),
        (None, true) => children::run_all(&selected, &args),
        (None, false) => run_one(selected[0], &args),
    }
}
