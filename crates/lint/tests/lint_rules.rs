//! Integration tests for marlin-lint: every rule fires on its planted
//! fixture with exact file:line diagnostics, waivers are honored, the
//! budget ratchet trips, and the real workspace scans clean.

use marlin_lint::rules::FileCtx;
use marlin_lint::{load_config, run, LintReport, Severity};
use marlin_telemetry::json::{parse_json, Json};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture_report() -> LintReport {
    let root = fixture_root();
    let cfg = load_config(&root).expect("fixture lint.toml parses");
    run(&root, &cfg).expect("fixture tree lints")
}

/// `(rule, file, line)` triples of active findings for one rule.
fn findings(report: &LintReport, rule: &str) -> Vec<(String, usize)> {
    report
        .violations
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| (d.file.clone(), d.line))
        .collect()
}

#[test]
fn no_hash_collections_fires_with_exact_lines() {
    let report = fixture_report();
    assert_eq!(
        findings(&report, "no-hash-collections"),
        vec![
            ("crates/core/src/hash.rs".to_string(), 2),
            ("crates/core/src/hash.rs".to_string(), 4),
            ("crates/core/src/hash.rs".to_string(), 5),
        ],
        "exactly the three un-waived HashMap mentions outside #[cfg(test)]"
    );
}

#[test]
fn no_wallclock_fires_and_respects_the_allowlist() {
    let report = fixture_report();
    assert_eq!(
        findings(&report, "no-wallclock"),
        vec![
            ("crates/core/src/clock.rs".to_string(), 4),
            ("crates/core/src/clock.rs".to_string(), 5),
            ("crates/core/src/clock.rs".to_string(), 10),
            ("crates/core/src/clock.rs".to_string(), 11),
        ],
        "SystemTime, UNIX_EPOCH, and both Instant mentions; allowed_clock.rs exempt"
    );
}

#[test]
fn no_ambient_rng_fires() {
    let report = fixture_report();
    assert_eq!(
        findings(&report, "no-ambient-rng"),
        vec![
            ("crates/core/src/rng.rs".to_string(), 4),
            ("crates/core/src/rng.rs".to_string(), 8),
        ],
        "thread_rng and RandomState"
    );
}

#[test]
fn fork_label_collisions_are_reported_on_both_sites() {
    let report = fixture_report();
    assert_eq!(
        findings(&report, "fork-label-uniqueness"),
        vec![
            ("crates/core/src/forks.rs".to_string(), 6),
            ("crates/core/src/forks.rs".to_string(), 7),
        ],
        "literal 7 and const STREAM_A = 7 collide; fork(8) is unique"
    );
    let msg = &report
        .violations
        .iter()
        .find(|d| d.rule == "fork-label-uniqueness")
        .expect("collision diagnostic present")
        .message;
    assert!(
        msg.contains("label 7"),
        "message names the colliding label: {msg}"
    );
}

#[test]
fn no_panic_in_lib_counts_against_the_budget() {
    let report = fixture_report();
    assert_eq!(
        findings(&report, "no-panic-in-lib"),
        vec![
            ("crates/core/src/panics.rs".to_string(), 4),
            ("crates/core/src/panics.rs".to_string(), 8),
            ("crates/core/src/panics.rs".to_string(), 12),
        ],
        "unwrap(), expect(), panic! in lib code; the #[cfg(test)] module is exempt"
    );
    assert_eq!(report.panic_findings, 3);
    assert_eq!(
        report.panic_budget, 2,
        "fixture budget is deliberately short"
    );
    assert!(
        !report.ok(),
        "3 findings over a budget of 2 must fail the gate"
    );
}

#[test]
fn waivers_are_honored_and_audited() {
    let report = fixture_report();
    let waived: Vec<(String, usize)> = report
        .waived
        .iter()
        .map(|d| (d.file.clone(), d.line))
        .collect();
    assert_eq!(
        waived,
        vec![("crates/core/src/hash.rs".to_string(), 9)],
        "the whole-line waiver covers the HashSet on the next line"
    );
    assert!(
        report.waived[0].message.contains("lookup-only"),
        "waived diagnostics carry the justification for audit"
    );
}

#[test]
fn malformed_and_unused_waivers_are_flagged() {
    let report = fixture_report();
    assert_eq!(
        findings(&report, "bad-waiver"),
        vec![("crates/core/src/waivers.rs".to_string(), 3)],
        "unknown rule in a directive is a hard error, not a silent no-op"
    );
    assert_eq!(
        findings(&report, "unused-waiver"),
        vec![("crates/core/src/waivers.rs".to_string(), 6)],
        "a waiver nothing consumed is reported so stale escapes get removed"
    );
    let unused = report
        .violations
        .iter()
        .find(|d| d.rule == "unused-waiver")
        .expect("unused-waiver diagnostic present");
    assert_eq!(unused.severity, Severity::Warn);
}

#[test]
fn lib_code_lines_skip_comments_blanks_and_test_items() {
    // Lines with a token outside `#[cfg(test)]`, per fixture file:
    // allowed_clock 3, clock 9, forks 6, hash 7 (its test module is
    // out), panics 9 (likewise), rng 5, waivers 2. `excluded/` is never
    // scanned.
    assert_eq!(fixture_report().lib_code_lines, 41);
    let src = "//! doc\n\nfn f() -> &'static str {\n    \"two\n lines\"\n}\n\
               #[cfg(test)]\nmod tests {}\n";
    let ctx = FileCtx::build("crates/x/src/a.rs".to_string(), src);
    assert_eq!(ctx.code_lines(), 3, "a token counts on its first line only");
}

#[test]
fn excluded_paths_are_never_scanned() {
    let report = fixture_report();
    assert!(
        report
            .violations
            .iter()
            .chain(report.waived.iter())
            .all(|d| !d.file.starts_with("excluded/")),
        "fixture lint.toml `exclude` must drop the whole subtree"
    );
}

#[test]
fn fixture_gate_fails_overall() {
    let report = fixture_report();
    assert!(!report.ok());
    assert!(
        report
            .violations
            .iter()
            .any(|d| d.severity == Severity::Error),
        "planted errors must be error-severity"
    );
}

#[test]
fn json_output_is_well_formed_and_complete() {
    let report = fixture_report();
    let json = report.to_json();
    assert!(json.contains("\"rule\":\"no-hash-collections\""));
    assert!(json.contains("\"file\":\"crates/core/src/forks.rs\""));
    let v = parse_json(&json).unwrap_or_else(|e| panic!("{e} in:\n{json}"));
    assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
    let budget = v.get("panic_budget").expect("panic_budget");
    assert_eq!(budget.get("findings"), Some(&Json::Num(3.0)));
    assert_eq!(budget.get("budget"), Some(&Json::Num(2.0)));
    assert_eq!(v.get("lib_code_lines"), Some(&Json::Num(41.0)));
    let violations = v
        .get("violations")
        .and_then(Json::as_arr)
        .expect("violations");
    assert_eq!(violations.len(), report.violations.len());
    assert!(violations.iter().any(|d| {
        d.get("rule").and_then(Json::as_str) == Some("no-hash-collections")
            && d.get("severity").and_then(Json::as_str) == Some("error")
    }));
    let waived = v.get("waived").and_then(Json::as_arr).expect("waived");
    assert_eq!(waived.len(), report.waived.len());
}

/// The load-bearing check: the real workspace lints clean. This is the
/// same invocation CI gates on (`cargo run -p lint -- --check`).
#[test]
fn real_workspace_is_lint_clean() {
    let root = workspace_root();
    let cfg = load_config(&root).expect("workspace lint.toml parses");
    let report = run(&root, &cfg).expect("workspace lints");
    let errors: Vec<String> = report
        .violations
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.to_string())
        .collect();
    assert!(
        errors.is_empty(),
        "workspace must be lint-clean:\n{}",
        errors.join("\n")
    );
    assert!(
        report.panic_findings as u64 <= report.panic_budget,
        "no-panic-in-lib ratchet exceeded: {}/{} — fix the new panic \
         sites instead of raising the budget",
        report.panic_findings,
        report.panic_budget
    );
    assert!(report.ok());
    assert!(
        report.files_scanned > 100,
        "sanity: the workspace walk found only {} files",
        report.files_scanned
    );
}
