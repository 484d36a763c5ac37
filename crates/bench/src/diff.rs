//! The noise-aware perf-regression comparator behind the `bench-diff`
//! binary.
//!
//! Two `BENCH_*.json` trees (typically the committed `bench/baseline/`
//! and a fresh `MARLIN_BENCH_JSON` output directory) are compared
//! target by target under a split discipline:
//!
//! - **Deterministic fields gate exactly.** `scale`, the section list,
//!   each section's `virtual_ns`, and the deterministic result values
//!   ([`DETERMINISTIC_VALUES`]: commits, meta cost, coordination ops,
//!   client counts, reproduced paper ratios) are pure functions of
//!   (scenario, seed, scale) — any
//!   drift is a behavior change, not noise, and fails the diff until the
//!   baseline is refreshed deliberately.
//! - **Wall-clock fields gate with noise headroom.** Wall times come
//!   from shared CI runners; the comparator takes the *min over N*
//!   current trees (pass several run directories for min-of-N), reports
//!   the ratio, and only hard-fails when virtual-seconds-per-wall-second
//!   collapses below `baseline / `[`DEFAULT_VPW_FLOOR_DIV`] — an
//!   order-of-magnitude floor that survives runner variance but catches
//!   an accidental return to per-client cost. An optional relative wall
//!   tolerance can be armed on top.
//!
//! The comparator also aggregates the current tree's per-target files
//! into one `BENCH_TRAJECTORY.json` ([`write_trajectory`]) so a single
//! artifact carries the whole run's perf trajectory.
//!
//! Everything here is `Result`-based: the binary owns process exit.

use marlin_telemetry::json::{self, json_f64, parse_json, Json};
use std::path::Path;

/// Result values that are pure functions of (scenario, seed, scale) and
/// therefore gate with exact equality. Anything else under `values`
/// (wall-derived speedups, rates) is reported but never gated.
pub const DETERMINISTIC_VALUES: [&str; 6] = [
    "commits",
    "meta_cost",
    "coord_ops_total",
    "active_clients",
    "probe_clients",
    "ratio",
];

/// Default divisor for the virtual-per-wall hard floor: the current run
/// fails when its best section rate drops below `baseline / 8`.
pub const DEFAULT_VPW_FLOOR_DIV: f64 = 8.0;

// ---------------------------------------------------------------------------
// The artifact model the comparator works on.

/// One section of a parsed `BENCH_*.json`.
#[derive(Clone, Debug)]
pub struct SectionDoc {
    /// Section label (scenario/backend/runner).
    pub name: String,
    /// Measured wall nanoseconds.
    pub wall_ns: u64,
    /// Simulated virtual nanoseconds (deterministic unless the section
    /// is `wall_bounded`).
    pub virtual_ns: u64,
    /// The section ran under a wall-clock budget: `virtual_ns` is
    /// wall-dependent, so only its *rate* is comparable.
    pub wall_bounded: bool,
    /// Free-form result values, in artifact order.
    pub values: Vec<(String, f64)>,
}

impl SectionDoc {
    /// Virtual-seconds simulated per wall-second.
    #[must_use]
    pub fn virtual_per_wall(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.virtual_ns as f64 / self.wall_ns as f64
        }
    }

    fn value(&self, key: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// One parsed `BENCH_<target>.json`.
#[derive(Clone, Debug)]
pub struct BenchDoc {
    /// Bench target name.
    pub target: String,
    /// The `MARLIN_SCALE` the run used (deterministic).
    pub scale: u64,
    /// Sections in run order.
    pub sections: Vec<SectionDoc>,
}

/// Parse a `BENCH_*.json` artifact into the comparator's model.
pub fn parse_bench_doc(text: &str) -> Result<BenchDoc, String> {
    let root = parse_json(text)?;
    let target = root
        .get("target")
        .and_then(Json::as_str)
        .ok_or("missing string field 'target'")?
        .to_string();
    let scale = root
        .get("scale")
        .and_then(Json::as_f64)
        .ok_or("missing numeric field 'scale'")? as u64;
    let sections = match root.get("sections") {
        Some(Json::Arr(items)) => items,
        _ => return Err("missing array field 'sections'".into()),
    };
    let mut out = Vec::with_capacity(sections.len());
    for s in sections {
        let name = s
            .get("name")
            .and_then(Json::as_str)
            .ok_or("section missing 'name'")?
            .to_string();
        let wall_ns =
            s.get("wall_ns")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("section '{name}' missing 'wall_ns'"))? as u64;
        let virtual_ns = s
            .get("virtual_ns")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("section '{name}' missing 'virtual_ns'"))?
            as u64;
        let wall_bounded = matches!(s.get("wall_bounded"), Some(Json::Bool(true)));
        let mut values = Vec::new();
        if let Some(Json::Obj(members)) = s.get("values") {
            for (k, v) in members {
                values.push((
                    k.clone(),
                    v.as_f64()
                        .ok_or_else(|| format!("section '{name}' value '{k}' not a number"))?,
                ));
            }
        }
        out.push(SectionDoc {
            name,
            wall_ns,
            virtual_ns,
            wall_bounded,
            values,
        });
    }
    Ok(BenchDoc {
        target,
        scale,
        sections: out,
    })
}

/// Load every `BENCH_*.json` under `dir`, sorted by target name. The
/// raw text rides along for trajectory aggregation.
pub fn load_dir(dir: &Path) -> Result<Vec<(BenchDoc, String)>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut docs = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        // Per-target artifacts only — never a previously aggregated
        // trajectory living in the same directory.
        if !name.starts_with("BENCH_")
            || !name.ends_with(".json")
            || name == "BENCH_TRAJECTORY.json"
        {
            continue;
        }
        let path = entry.path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = parse_bench_doc(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        docs.push((doc, text));
    }
    docs.sort_by(|a, b| a.0.target.cmp(&b.0.target));
    Ok(docs)
}

// ---------------------------------------------------------------------------
// The verdict.

/// Outcome of one check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckStatus {
    /// The gate holds.
    Pass,
    /// The gate is broken — the diff fails.
    Fail,
    /// Reported for the record, never gated.
    Info,
}

impl CheckStatus {
    fn name(self) -> &'static str {
        match self {
            CheckStatus::Pass => "pass",
            CheckStatus::Fail => "fail",
            CheckStatus::Info => "info",
        }
    }
}

/// One comparison check on one target/section.
#[derive(Clone, Debug)]
pub struct Check {
    /// Bench target the check ran on.
    pub target: String,
    /// Section label, or empty for target-level checks.
    pub section: String,
    /// Check name (`scale`, `virtual_ns`, `value:commits`, ...).
    pub name: String,
    /// Pass/fail/info.
    pub status: CheckStatus,
    /// Human-readable evidence.
    pub detail: String,
}

/// The full comparison verdict.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// Every check, in target order.
    pub checks: Vec<Check>,
}

impl Verdict {
    /// Whether every gated check passed.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.checks.iter().all(|c| c.status != CheckStatus::Fail)
    }

    /// Count of failed checks.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.checks
            .iter()
            .filter(|c| c.status == CheckStatus::Fail)
            .count()
    }

    /// Serialize the verdict:
    /// `{"status":...,"failures":N,"checks":[...]}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 160 * self.checks.len());
        json::object(&mut out, |o| {
            o.field("status", if self.pass() { "pass" } else { "fail" })
                .field("failures", self.failures());
            o.arr("checks", |a| {
                for c in &self.checks {
                    a.obj(|o| {
                        o.field("target", &c.target)
                            .field("section", &c.section)
                            .field("check", &c.name)
                            .field("status", c.status.name())
                            .field("detail", &c.detail);
                    });
                }
            });
        });
        out.push('\n');
        out
    }
}

/// Comparator knobs.
#[derive(Clone, Debug)]
pub struct DiffConfig {
    /// Relative wall-time tolerance in percent; `None` (the default)
    /// reports wall ratios without gating them — shared-runner noise
    /// makes raw wall time a bad hard gate.
    pub wall_tol_pct: Option<f64>,
    /// Divisor for the virtual-per-wall hard floor.
    pub vpw_floor_div: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            wall_tol_pct: None,
            vpw_floor_div: DEFAULT_VPW_FLOOR_DIV,
        }
    }
}

fn check(
    checks: &mut Vec<Check>,
    target: &str,
    section: &str,
    name: &str,
    status: CheckStatus,
    detail: String,
) {
    checks.push(Check {
        target: target.to_string(),
        section: section.to_string(),
        name: name.to_string(),
        status,
        detail,
    });
}

const REFRESH: &str = "deterministic output drifted — a behavior change, not noise; if \
                       intended, refresh bench/baseline (see docs/OBSERVABILITY.md)";

/// Compare a baseline tree against N current trees (min-of-N wall
/// discipline) entirely in memory. Each element of `currents` is one
/// run's parsed documents.
#[must_use]
pub fn diff_docs(baseline: &[BenchDoc], currents: &[Vec<BenchDoc>], cfg: &DiffConfig) -> Verdict {
    let mut checks = Vec::new();
    for base in baseline {
        let t = &base.target;
        let copies: Vec<&BenchDoc> = currents
            .iter()
            .filter_map(|run| run.iter().find(|d| d.target == *t))
            .collect();
        if copies.is_empty() {
            check(
                &mut checks,
                t,
                "",
                "present",
                CheckStatus::Fail,
                format!("BENCH_{t}.json missing from the current tree — run the bench target"),
            );
            continue;
        }
        for cur in &copies {
            if cur.scale != base.scale {
                check(
                    &mut checks,
                    t,
                    "",
                    "scale",
                    CheckStatus::Fail,
                    format!(
                        "baseline ran MARLIN_SCALE={}, current ran {} — rerun at the \
                         baseline scale or refresh the baseline",
                        base.scale, cur.scale
                    ),
                );
            }
            let names = |d: &BenchDoc| -> Vec<String> {
                d.sections.iter().map(|s| s.name.clone()).collect()
            };
            if names(cur) != names(base) {
                check(
                    &mut checks,
                    t,
                    "",
                    "sections",
                    CheckStatus::Fail,
                    format!(
                        "section list drifted (baseline {:?}, current {:?}) — {REFRESH}",
                        names(base),
                        names(cur)
                    ),
                );
            }
        }
        if checks
            .iter()
            .any(|c| c.target == *t && c.status == CheckStatus::Fail)
        {
            continue; // structure broken: per-section checks would lie
        }
        for (idx, bs) in base.sections.iter().enumerate() {
            let sec = &bs.name;
            let cur_secs: Vec<&SectionDoc> =
                copies.iter().filter_map(|d| d.sections.get(idx)).collect();
            // Deterministic: virtual_ns and the deterministic values
            // must match exactly in every current copy. Wall-bounded
            // probe sections cover as much virtual time as their wall
            // budget allowed — there only the rate below is comparable.
            let wall_bounded = bs.wall_bounded || cur_secs.iter().any(|s| s.wall_bounded);
            for cs in &cur_secs {
                if !wall_bounded && cs.virtual_ns != bs.virtual_ns {
                    check(
                        &mut checks,
                        t,
                        sec,
                        "virtual_ns",
                        CheckStatus::Fail,
                        format!(
                            "baseline simulated {} ns, current {} ns — {REFRESH}",
                            bs.virtual_ns, cs.virtual_ns
                        ),
                    );
                }
                for key in DETERMINISTIC_VALUES {
                    let Some(want) = bs.value(key) else { continue };
                    match cs.value(key) {
                        Some(got) if got == want => {}
                        Some(got) => check(
                            &mut checks,
                            t,
                            sec,
                            &format!("value:{key}"),
                            CheckStatus::Fail,
                            format!(
                                "baseline {key}={}, current {} — {REFRESH}",
                                json_f64(want),
                                json_f64(got)
                            ),
                        ),
                        None => check(
                            &mut checks,
                            t,
                            sec,
                            &format!("value:{key}"),
                            CheckStatus::Fail,
                            format!("baseline records {key}, current dropped it — {REFRESH}"),
                        ),
                    }
                }
            }
            if checks
                .iter()
                .any(|c| c.target == *t && c.section == *sec && c.status == CheckStatus::Fail)
            {
                continue;
            }
            check(
                &mut checks,
                t,
                sec,
                "deterministic",
                CheckStatus::Pass,
                "virtual_ns and deterministic values match the baseline".into(),
            );
            // Noise-aware: min-of-N wall, best-of-N virtual-per-wall.
            let min_wall = cur_secs.iter().map(|s| s.wall_ns).min().unwrap_or(0);
            let best_vpw = cur_secs
                .iter()
                .map(|s| s.virtual_per_wall())
                .fold(0.0_f64, f64::max);
            let base_vpw = bs.virtual_per_wall();
            if bs.wall_ns > 0 && min_wall > 0 {
                let ratio = min_wall as f64 / bs.wall_ns as f64;
                let (status, gate) = match cfg.wall_tol_pct {
                    Some(tol) if ratio > 1.0 + tol / 100.0 => {
                        (CheckStatus::Fail, format!(" > {tol}% tolerance"))
                    }
                    Some(tol) => (CheckStatus::Pass, format!(" within {tol}% tolerance")),
                    None => (CheckStatus::Info, String::new()),
                };
                check(
                    &mut checks,
                    t,
                    sec,
                    "wall",
                    status,
                    format!(
                        "min-of-{} wall {:.3}s vs baseline {:.3}s ({:.2}x){gate}",
                        cur_secs.len(),
                        min_wall as f64 / 1e9,
                        bs.wall_ns as f64 / 1e9,
                        ratio
                    ),
                );
            }
            if base_vpw > 0.0 && bs.virtual_ns > 0 {
                let floor = base_vpw / cfg.vpw_floor_div;
                let status = if best_vpw >= floor {
                    CheckStatus::Pass
                } else {
                    CheckStatus::Fail
                };
                check(
                    &mut checks,
                    t,
                    sec,
                    "virtual_per_wall",
                    status,
                    format!(
                        "best-of-{} {:.1} virt-s/wall-s vs floor {:.1} (baseline {:.1} / {})",
                        cur_secs.len(),
                        best_vpw,
                        floor,
                        base_vpw,
                        cfg.vpw_floor_div
                    ),
                );
            }
        }
    }
    // Targets only the current trees know about: informational — commit
    // a refreshed baseline to start gating them.
    for run in currents {
        for d in run {
            let known = baseline.iter().any(|b| b.target == d.target)
                || checks
                    .iter()
                    .any(|c| c.target == d.target && c.name == "new-target");
            if !known {
                check(
                    &mut checks,
                    &d.target,
                    "",
                    "new-target",
                    CheckStatus::Info,
                    "not in the baseline — refresh bench/baseline to gate it".into(),
                );
            }
        }
    }
    Verdict { checks }
}

/// Compare the committed baseline directory against one or more current
/// run directories (min-of-N wall discipline across them).
pub fn diff_dirs(baseline: &Path, currents: &[&Path], cfg: &DiffConfig) -> Result<Verdict, String> {
    let base: Vec<BenchDoc> = load_dir(baseline)?.into_iter().map(|(d, _)| d).collect();
    if base.is_empty() {
        return Err(format!(
            "no BENCH_*.json under {} — nothing to gate against",
            baseline.display()
        ));
    }
    let mut runs = Vec::with_capacity(currents.len());
    for dir in currents {
        runs.push(load_dir(dir)?.into_iter().map(|(d, _)| d).collect());
    }
    Ok(diff_docs(&base, &runs, cfg))
}

/// Aggregate every `BENCH_*.json` under `dir` into one
/// `BENCH_TRAJECTORY.json` document at `out`, sorted by target:
/// `{"targets":[<each artifact verbatim>]}`. Returns the number of
/// targets aggregated.
pub fn write_trajectory(dir: &Path, out: &Path) -> Result<usize, String> {
    let docs = load_dir(dir)?;
    let mut body = String::with_capacity(docs.iter().map(|(_, t)| t.len() + 2).sum::<usize>() + 32);
    json::object(&mut body, |o| {
        o.arr("targets", |a| {
            for (_, raw) in &docs {
                a.raw(raw.trim_end());
            }
        });
    });
    body.push('\n');
    std::fs::write(out, body).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    Ok(docs.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use marlin_telemetry::{BenchReport, BenchSection};

    fn doc(target: &str, wall: u64, virt: u64, commits: f64) -> BenchDoc {
        let mut r = BenchReport::new(target, 10);
        r.sections.push(BenchSection {
            name: "scenario/marlin/sim".into(),
            wall_nanos: wall,
            virtual_nanos: virt,
            wall_bounded: false,
            profile: None,
            values: vec![
                ("commits".into(), commits),
                ("speedup_vs_exact".into(), 123.4),
            ],
        });
        parse_bench_doc(&r.to_json()).expect("round trip")
    }

    #[test]
    fn parser_round_trips_the_emitters_output() {
        let d = doc("million_clients", 2_000_000_000, 60_000_000_000, 81_000.0);
        assert_eq!(d.target, "million_clients");
        assert_eq!(d.scale, 10);
        assert_eq!(d.sections.len(), 1);
        assert_eq!(d.sections[0].virtual_ns, 60_000_000_000);
        assert_eq!(d.sections[0].value("commits"), Some(81_000.0));
        assert_eq!(d.sections[0].value("speedup_vs_exact"), Some(123.4));
        assert!(parse_bench_doc("{\"scale\":1,\"sections\":[]}").is_err());
    }

    #[test]
    fn identical_trees_pass_and_wall_noise_is_not_gated() {
        let base = vec![doc("t", 1_000, 60_000, 500.0)];
        // 3x slower wall: reported, not gated.
        let cur = vec![vec![doc("t", 3_000, 60_000, 500.0)]];
        let v = diff_docs(&base, &cur, &DiffConfig::default());
        assert!(v.pass(), "{:?}", v.checks);
        assert!(v
            .checks
            .iter()
            .any(|c| c.name == "wall" && c.status == CheckStatus::Info));
    }

    #[test]
    fn deterministic_drift_fails_the_diff() {
        let base = vec![doc("t", 1_000, 60_000, 500.0)];
        let cur = vec![vec![doc("t", 1_000, 60_000, 501.0)]];
        let v = diff_docs(&base, &cur, &DiffConfig::default());
        assert!(!v.pass());
        assert!(v
            .checks
            .iter()
            .any(|c| c.name == "value:commits" && c.status == CheckStatus::Fail));
        // Wall-derived values never gate.
        assert!(!v.checks.iter().any(|c| c.name == "value:speedup_vs_exact"));
    }

    #[test]
    fn virtual_per_wall_collapse_hard_fails() {
        let base = vec![doc("t", 1_000, 60_000, 500.0)];
        // 60x slower: past the /8 floor even after noise headroom.
        let cur = vec![vec![doc("t", 60_000, 60_000, 500.0)]];
        let v = diff_docs(&base, &cur, &DiffConfig::default());
        assert!(!v.pass());
        assert!(v
            .checks
            .iter()
            .any(|c| c.name == "virtual_per_wall" && c.status == CheckStatus::Fail));
    }

    #[test]
    fn wall_bounded_sections_gate_rate_not_virtual_total() {
        let mk = |wall: u64, virt: u64| {
            let mut r = BenchReport::new("probe", 10);
            r.sections.push(BenchSection {
                name: "exact-probe".into(),
                wall_nanos: wall,
                virtual_nanos: virt,
                wall_bounded: true,
                profile: None,
                values: vec![("probe_clients".into(), 2_000.0)],
            });
            parse_bench_doc(&r.to_json()).expect("round trip")
        };
        let base = vec![mk(1_000, 40_000)];
        // Different virtual coverage at a similar rate: the wall budget
        // decided the total, so the diff must pass.
        let v = diff_docs(&base, &[vec![mk(1_100, 36_000)]], &DiffConfig::default());
        assert!(v.pass(), "{:?}", v.checks);
        // A collapsed rate still hard-fails.
        let v = diff_docs(&base, &[vec![mk(10_000, 40_000)]], &DiffConfig::default());
        assert!(!v.pass());
    }

    #[test]
    fn min_of_n_takes_the_best_current_run() {
        let base = vec![doc("t", 1_000, 60_000, 500.0)];
        // One noisy run past the floor, one healthy run: min-of-N passes.
        let cur = vec![
            vec![doc("t", 60_000, 60_000, 500.0)],
            vec![doc("t", 1_100, 60_000, 500.0)],
        ];
        let v = diff_docs(&base, &cur, &DiffConfig::default());
        assert!(v.pass(), "{:?}", v.checks);
    }

    #[test]
    fn missing_target_fails_and_new_target_informs() {
        let base = vec![doc("gone", 1_000, 60_000, 1.0)];
        let cur = vec![vec![doc("fresh", 1_000, 60_000, 1.0)]];
        let v = diff_docs(&base, &cur, &DiffConfig::default());
        assert!(!v.pass());
        assert!(v.checks.iter().any(|c| c.name == "present"));
        assert!(v
            .checks
            .iter()
            .any(|c| c.name == "new-target" && c.status == CheckStatus::Info));
    }

    #[test]
    fn armed_wall_tolerance_gates() {
        let base = vec![doc("t", 1_000, 60_000, 500.0)];
        let cur = vec![vec![doc("t", 3_000, 60_000, 500.0)]];
        let cfg = DiffConfig {
            wall_tol_pct: Some(50.0),
            ..DiffConfig::default()
        };
        let v = diff_docs(&base, &cur, &cfg);
        assert!(!v.pass());
        assert!(v
            .checks
            .iter()
            .any(|c| c.name == "wall" && c.status == CheckStatus::Fail));
    }

    #[test]
    fn verdict_json_is_wellformed() {
        let base = vec![doc("t", 1_000, 60_000, 500.0)];
        let v = diff_docs(
            &base,
            &[vec![doc("t", 1_000, 60_000, 501.0)]],
            &DiffConfig::default(),
        );
        let j = v.to_json();
        assert!(j.starts_with("{\"status\":\"fail\""));
        let parsed = parse_json(&j).expect("verdict must itself parse");
        let check = &parsed.get("checks").and_then(Json::as_arr).expect("checks")[0];
        assert_eq!(
            check.get("check").and_then(Json::as_str),
            Some("value:commits")
        );
        assert_eq!(
            j,
            r#"{"status":"fail","failures":1,"checks":[{"target":"t","section":"scenario/marlin/sim","check":"value:commits","status":"fail","detail":"baseline commits=500, current 501 — deterministic output drifted — a behavior change, not noise; if intended, refresh bench/baseline (see docs/OBSERVABILITY.md)"}]}
"#
        );
    }

    #[test]
    fn trajectory_embeds_each_artifact_verbatim() {
        let dir = std::env::temp_dir().join(format!("marlin-trajectory-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut b = BenchReport::new("b", 10);
        b.sections.push(BenchSection {
            name: "s".into(),
            wall_nanos: 5,
            virtual_nanos: 9,
            ..BenchSection::default()
        });
        std::fs::write(dir.join("BENCH_b.json"), b.to_json()).expect("write b");
        std::fs::write(
            dir.join("BENCH_a.json"),
            BenchReport::new("a", 10).to_json(),
        )
        .expect("write a");
        let out = dir.join("trajectory.json");
        assert_eq!(write_trajectory(&dir, &out), Ok(2));
        assert_eq!(
            std::fs::read_to_string(&out).expect("written"),
            r#"{"targets":[{"target":"a","scale":10,"sections":[]},{"target":"b","scale":10,"sections":[{"name":"s","wall_ns":5,"virtual_ns":9,"virtual_per_wall":1.8}]}]}
"#
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
