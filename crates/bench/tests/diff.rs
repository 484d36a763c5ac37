//! End-to-end coverage for the `bench-diff` regression gate: the CLI
//! must pass on a noisy-but-honest tree, fail on the planted-regression
//! fixture (the CI negative self-test runs the same pair), and emit a
//! machine-readable verdict plus the aggregated trajectory.

use marlin_bench::diff::{diff_dirs, DiffConfig};
use marlin_telemetry::json::{parse_json, Json};
use std::path::Path;
use std::process::Command;

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/diff/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn bench_diff(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench-diff"))
        .args(args)
        .output()
        .expect("bench-diff must spawn")
}

#[test]
fn wall_noise_passes_but_a_planted_regression_fails() {
    // 1.55x slower wall with identical deterministic output: pass.
    let out = bench_diff(&[&fixture("baseline"), &fixture("pass")]);
    assert!(
        out.status.success(),
        "honest noise must pass:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Drifted commits + collapsed virt-per-wall: exit 1, both named.
    let out = bench_diff(&[&fixture("baseline"), &fixture("regression")]);
    assert_eq!(out.status.code(), Some(1), "regressions must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("value:commits"), "{stdout}");
    assert!(stdout.contains("virtual_per_wall"), "{stdout}");
    assert!(stdout.contains("PERF REGRESSION"), "{stdout}");
}

#[test]
fn verdict_and_trajectory_artifacts_are_written_and_parse() {
    let dir = std::env::temp_dir().join(format!("bench-diff-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let verdict_path = dir.join("verdict.json");
    let trajectory_path = dir.join("BENCH_TRAJECTORY.json");

    let out = bench_diff(&[
        &fixture("baseline"),
        &fixture("regression"),
        "--out",
        &verdict_path.to_string_lossy(),
        "--trajectory",
        &trajectory_path.to_string_lossy(),
    ]);
    assert_eq!(out.status.code(), Some(1));

    let verdict = std::fs::read_to_string(&verdict_path).expect("verdict written");
    let v = parse_json(&verdict).expect("verdict parses");
    assert_eq!(
        v.get("status").and_then(|s| match s {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }),
        Some("fail")
    );

    let trajectory = std::fs::read_to_string(&trajectory_path).expect("trajectory written");
    let t = parse_json(&trajectory).expect("trajectory parses");
    match t.get("targets") {
        Some(Json::Arr(targets)) => assert_eq!(targets.len(), 1, "one fixture target"),
        other => panic!("trajectory must carry a targets array, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn min_of_n_across_directories_absorbs_one_noisy_run() {
    // regression's wall collapse is forgiven when a second, healthy run
    // rides along — but its deterministic drift still fails the diff.
    let base = fixture("baseline");
    let v = diff_dirs(
        Path::new(&base),
        &[
            Path::new(&fixture("regression")),
            Path::new(&fixture("pass")),
        ],
        &DiffConfig::default(),
    )
    .expect("fixture dirs load");
    assert!(!v.pass(), "drifted commits fail regardless of wall noise");
    assert!(
        !v.checks
            .iter()
            .any(|c| c.name == "virtual_per_wall"
                && c.status == marlin_bench::diff::CheckStatus::Fail),
        "best-of-N rate clears the floor: {:?}",
        v.checks
    );
}

#[test]
fn a_reproduced_paper_ratio_drifting_in_its_last_digit_fails() {
    // Same section, commits, Meta Cost, virtual and wall time; only the
    // claim's ratio moved to the next f64.
    let v = diff_dirs(
        Path::new(&fixture("ratio/baseline")),
        &[Path::new(&fixture("ratio/drift"))],
        &DiffConfig::default(),
    )
    .expect("fixture dirs load");
    let failed: Vec<&str> = v
        .checks
        .iter()
        .filter(|c| c.status == marlin_bench::diff::CheckStatus::Fail)
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(failed, ["value:ratio"], "{:?}", v.checks);
}

#[test]
fn missing_baseline_directory_is_a_usage_error_not_a_pass() {
    let out = bench_diff(&[&fixture("no-such-dir"), &fixture("pass")]);
    assert_eq!(out.status.code(), Some(2), "I/O errors must exit 2");
}
