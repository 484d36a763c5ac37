//! marlin-lint CLI.
//!
//! ```text
//! cargo run -p lint -- [--check] [--root <dir>] [--json <path>]
//! ```
//!
//! - `--check` — exit non-zero when the gate fails (CI mode); without
//!   it the run only reports.
//! - `--root <dir>` — tree to lint (default `.`); reads `<dir>/lint.toml`.
//! - `--json <path>` — also write machine-readable diagnostics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut check = false;
    let mut root = PathBuf::from(".");
    let mut json: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a directory"),
            },
            "--json" => match args.next() {
                Some(v) => json = Some(PathBuf::from(v)),
                None => return usage("--json needs a path"),
            },
            "--help" | "-h" => {
                println!("usage: lint [--check] [--root <dir>] [--json <path>]");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let cfg = match marlin_lint::load_config(&root) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("lint: configuration error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match marlin_lint::run(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::from(2);
        }
    };

    // Errors individually; warn findings summarized per file to keep CI
    // logs readable (full detail is in the JSON artifact).
    let mut warn_by_file: BTreeMap<&str, usize> = BTreeMap::new();
    for d in &report.violations {
        match d.severity {
            marlin_lint::Severity::Error => println!("{d}"),
            marlin_lint::Severity::Warn => {
                *warn_by_file.entry(d.file.as_str()).or_insert(0) += 1;
            }
        }
    }
    for (file, count) in &warn_by_file {
        println!("{file}: {count} budgeted warning(s) (see --json for detail)");
    }
    let errors = report
        .violations
        .iter()
        .filter(|d| d.severity == marlin_lint::Severity::Error)
        .count();
    println!(
        "lint: {} file(s) scanned, {errors} error(s), {} waived, \
         no-panic-in-lib {}/{} budget, {} library code line(s)",
        report.files_scanned,
        report.waived.len(),
        report.panic_findings,
        report.panic_budget,
        report.lib_code_lines
    );
    if report.panic_findings as u64 > report.panic_budget {
        println!(
            "lint: error: no-panic-in-lib findings ({}) exceed the lint.toml budget ({}) — \
             fix the new panic sites or (only when ratcheting legitimately) raise the budget",
            report.panic_findings, report.panic_budget
        );
    }

    if let Some(path) = json {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if check && !report.ok() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!("lint: {err}\nusage: lint [--check] [--root <dir>] [--json <path>]");
    ExitCode::from(2)
}
