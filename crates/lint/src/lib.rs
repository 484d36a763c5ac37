//! marlin-lint: repo-specific determinism & hygiene static analysis.
//!
//! Every guarantee this repo sells — bit-identical decision logs across
//! runners, byte-identical traces per `(Scenario, seed)`, thread-count
//! independent fuzz digests — rests on determinism. This crate enforces
//! the determinism *preconditions* at build time instead of hoping a
//! 64-seed swarm trips over a violation later:
//!
//! | rule | invariant |
//! |---|---|
//! | `no-hash-collections` | no `HashMap`/`HashSet` in deterministic crates (iteration order is seeded per-process) |
//! | `no-wallclock` | `Instant`/`SystemTime` only in the measurement allowlist — virtual time never reads the wall |
//! | `no-ambient-rng` | all randomness flows from labeled `DetRng` forks |
//! | `fork-label-uniqueness` | no two static `DetRng::fork` labels collide (same label ⇒ identical stream — the PR 7 footgun) |
//! | `no-panic-in-lib` | `unwrap()`/`expect()`/`panic!` in library code ride a ratcheting budget |
//!
//! The analysis is a comment/string-aware token scan ([`lexer`]), not a
//! full parse: rules match identifier/punctuation patterns, skip
//! `#[cfg(test)]` modules, honor inline
//! `// marlin-lint: allow(<rule>, <reason>)` waivers, and read path
//! allowlists plus the panic budget from `lint.toml` ([`config`]).
//! `cargo run -p lint -- --check` is the CI gate.

pub mod config;
pub mod lexer;
pub mod rules;

use marlin_telemetry::json;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// How a diagnostic participates in the `--check` gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Fails the gate outright.
    Error,
    /// Reported; gates only through the rule's budget (if any).
    Warn,
}

/// One finding, pinned to a file and line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule that produced the finding.
    pub rule: String,
    /// Root-relative path, `/`-separated on every platform.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// Gate participation.
    pub severity: Severity,
}

impl Severity {
    fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}[{}] {}",
            self.file,
            self.line,
            self.severity.name(),
            self.rule,
            self.message
        )
    }
}

/// Result of linting a tree.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Active findings (errors and budgeted warnings).
    pub violations: Vec<Diagnostic>,
    /// Findings silenced by an inline waiver, kept for audit.
    pub waived: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// `no-panic-in-lib` findings counted against the budget.
    pub panic_findings: usize,
    /// The configured panic budget.
    pub panic_budget: u64,
    /// Non-test code lines in library files ([`rules::FileCtx::code_lines`]
    /// summed over [`rules::FileClass::Lib`]): the size of the shipped
    /// code, read the same way on every tree.
    pub lib_code_lines: usize,
}

impl LintReport {
    /// Whether the `--check` gate passes: no error-severity findings
    /// and the panic count within budget.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations
            .iter()
            .all(|d| d.severity != Severity::Error)
            && self.panic_findings as u64 <= self.panic_budget
    }

    /// Serialize to JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, |o| {
            o.field("ok", self.ok())
                .field("files_scanned", self.files_scanned)
                .field("lib_code_lines", self.lib_code_lines)
                .obj("panic_budget", |o| {
                    o.field("findings", self.panic_findings)
                        .field("budget", self.panic_budget);
                });
            for (key, list) in [("violations", &self.violations), ("waived", &self.waived)] {
                o.arr(key, |a| {
                    for d in list {
                        a.obj(|o| {
                            o.field("rule", &d.rule)
                                .field("file", &d.file)
                                .field("line", d.line)
                                .field("severity", d.severity.name())
                                .field("message", &d.message);
                        });
                    }
                });
            }
        });
        out.push('\n');
        out
    }
}

/// Load the configuration for `root` (`<root>/lint.toml`; a missing
/// file yields the all-default config so fixtures can opt out).
pub fn load_config(root: &Path) -> Result<config::Config, String> {
    let path = root.join("lint.toml");
    if !path.exists() {
        return Ok(config::Config::default());
    }
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    config::parse(&text)
}

/// Lint the tree rooted at `root` with `cfg`.
pub fn run(root: &Path, cfg: &config::Config) -> Result<LintReport, String> {
    let mut files = Vec::new();
    walk(root, root, &cfg.exclude, &mut files)
        .map_err(|e| format!("walking {}: {e}", root.display()))?;
    files.sort();
    let mut ctxs = Vec::new();
    for rel in &files {
        let text =
            fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))?;
        ctxs.push(rules::FileCtx::build(rel.clone(), &text));
    }
    let mut report = LintReport {
        files_scanned: ctxs.len(),
        panic_budget: cfg.rule(rules::NO_PANIC_IN_LIB).budget.unwrap_or(0),
        lib_code_lines: ctxs
            .iter()
            .filter(|c| c.class == rules::FileClass::Lib)
            .map(rules::FileCtx::code_lines)
            .sum(),
        ..LintReport::default()
    };
    rules::run_all(&mut ctxs, cfg, &mut report);
    // Stable output order regardless of rule execution order.
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    report
        .waived
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(report)
}

/// Collect root-relative, `/`-separated paths of every `.rs` file,
/// skipping excluded prefixes plus `target/` and VCS internals.
fn walk(root: &Path, dir: &Path, exclude: &[String], out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let rel = rel_of(root, &path);
        if exclude
            .iter()
            .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
        {
            continue;
        }
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, exclude, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

fn rel_of(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
