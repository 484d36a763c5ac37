//! The rule engine: file classification, `#[cfg(test)]` suppression,
//! waiver directives, and the five marlin-lint rules.

use crate::config::Config;
use crate::lexer::{self, Comment, Lexed, Token, TokenKind};
use crate::{Diagnostic, LintReport, Severity};
use std::collections::BTreeMap;

/// Rule name: hash collections banned in deterministic crates.
pub const NO_HASH_COLLECTIONS: &str = "no-hash-collections";
/// Rule name: wall-clock reads restricted to the allowlist.
pub const NO_WALLCLOCK: &str = "no-wallclock";
/// Rule name: only `DetRng`-derived randomness.
pub const NO_AMBIENT_RNG: &str = "no-ambient-rng";
/// Rule name: static `DetRng::fork` labels must not collide.
pub const FORK_LABEL_UNIQUENESS: &str = "fork-label-uniqueness";
/// Rule name: panic sites in library code ride a budget.
pub const NO_PANIC_IN_LIB: &str = "no-panic-in-lib";
/// Pseudo-rule for malformed or unknown waiver directives.
pub const BAD_WAIVER: &str = "bad-waiver";
/// Pseudo-rule for waivers that no finding consumed.
pub const UNUSED_WAIVER: &str = "unused-waiver";

/// Every real (waivable) rule.
pub const ALL_RULES: [&str; 5] = [
    NO_HASH_COLLECTIONS,
    NO_WALLCLOCK,
    NO_AMBIENT_RNG,
    FORK_LABEL_UNIQUENESS,
    NO_PANIC_IN_LIB,
];

/// What part of the workspace a file belongs to, which decides which
/// rules see it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// Library source (`crates/<name>/src/**` or the root `src/**`).
    Lib,
    /// Example binary (`examples/**` at root or under a crate).
    Example,
    /// Integration tests and benches (`tests/**`, `benches/**`).
    TestOrBench,
}

/// An inline `// marlin-lint: allow(<rule>, <reason>)` directive.
#[derive(Clone, Debug)]
pub struct Waiver {
    /// Rule being waived.
    pub rule: String,
    /// Mandatory justification.
    pub reason: String,
    /// Line of the directive comment.
    pub line: usize,
    /// Whether the directive shared its line with code (trailing) —
    /// a trailing waiver covers its own line, a whole-line waiver
    /// covers the next line.
    pub trailing: bool,
    /// Set once a finding consumed the waiver.
    pub used: bool,
}

/// One source file, lexed and classified.
pub struct FileCtx {
    /// Root-relative `/`-separated path.
    pub rel: String,
    /// Which rule scopes apply.
    pub class: FileClass,
    /// Crate name for `crates/<name>/...` paths (`marlin` for root).
    pub crate_name: String,
    /// Token stream and comments.
    pub lexed: Lexed,
    /// Token-index ranges under `#[cfg(test)]` (half-open).
    pub suppressed: Vec<(usize, usize)>,
    /// Parsed waiver directives.
    pub waivers: Vec<Waiver>,
    /// Malformed/unknown directives found while parsing waivers.
    pub waiver_errors: Vec<(usize, String)>,
}

impl FileCtx {
    /// Lex and classify one file.
    #[must_use]
    pub fn build(rel: String, text: &str) -> FileCtx {
        let lexed = lexer::lex(text);
        let (class, crate_name) = classify(&rel);
        let suppressed = cfg_test_ranges(&lexed.tokens);
        let (waivers, waiver_errors) = parse_waivers(&lexed.comments);
        FileCtx {
            rel,
            class,
            crate_name,
            lexed,
            suppressed,
            waivers,
            waiver_errors,
        }
    }

    /// Source lines on which at least one token outside `#[cfg(test)]`
    /// starts: comments, blank lines and test-only items do not count.
    #[must_use]
    pub fn code_lines(&self) -> usize {
        let mut last = 0;
        let mut lines = 0;
        for (i, t) in self.lexed.tokens.iter().enumerate() {
            if t.line != last && !self.is_suppressed(i) {
                last = t.line;
                lines += 1;
            }
        }
        lines
    }

    fn is_suppressed(&self, token_idx: usize) -> bool {
        self.suppressed
            .iter()
            .any(|&(a, b)| token_idx >= a && token_idx < b)
    }

    /// Consume a waiver for `rule` covering `line`, if one exists: a
    /// trailing directive on the same line, or a whole-line directive
    /// on the line directly above.
    fn take_waiver(&mut self, rule: &str, line: usize) -> Option<String> {
        for w in &mut self.waivers {
            let covers = if w.trailing {
                w.line == line
            } else {
                w.line + 1 == line || w.line == line
            };
            if covers && w.rule == rule {
                w.used = true;
                return Some(w.reason.clone());
            }
        }
        None
    }
}

fn classify(rel: &str) -> (FileClass, String) {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["crates", name, "src", ..] => (FileClass::Lib, (*name).to_string()),
        ["crates", name, "examples", ..] => (FileClass::Example, (*name).to_string()),
        ["crates", name, _, ..] => (FileClass::TestOrBench, (*name).to_string()),
        ["src", ..] => (FileClass::Lib, "marlin".to_string()),
        ["examples", ..] => (FileClass::Example, "marlin".to_string()),
        _ => (FileClass::TestOrBench, "marlin".to_string()),
    }
}

/// Find half-open token ranges covered by `#[cfg(test)]` attributes
/// (the attribute through the end of the item it gates). `cfg`
/// predicates that merely *mention* test under a `not(...)` are left
/// active.
fn cfg_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if let Some((attr_end, gates_test)) = parse_cfg_attr(tokens, i) {
            if gates_test {
                let item_end = skip_item(tokens, attr_end);
                out.push((i, item_end));
                i = item_end;
                continue;
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    out
}

/// If `tokens[i..]` starts a `#[cfg(...)]` attribute, return the index
/// just past its `]` and whether the predicate gates on `test`.
fn parse_cfg_attr(tokens: &[Token], i: usize) -> Option<(usize, bool)> {
    if !matches!(tokens.get(i)?.kind, TokenKind::Punct('#')) {
        return None;
    }
    if !matches!(tokens.get(i + 1)?.kind, TokenKind::Punct('[')) {
        return None;
    }
    let is_cfg = matches!(&tokens.get(i + 2)?.kind, TokenKind::Ident(s) if s == "cfg");
    // Scan to the matching `]`, tracking whether `test` appears and
    // whether a `not` appears before it (treat `not(test)` as live).
    let mut depth = 1; // the `[`
    let mut j = i + 2;
    let mut saw_test = false;
    let mut saw_not = false;
    while j < tokens.len() {
        match &tokens[j].kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some((j + 1, is_cfg && saw_test && !saw_not));
                }
            }
            TokenKind::Ident(s) if s == "test" => saw_test = true,
            TokenKind::Ident(s) if s == "not" && !saw_test => saw_not = true,
            _ => {}
        }
        j += 1;
    }
    None // unterminated attribute; treat as not-an-attr
}

/// Starting just past an attribute, skip any further attributes and
/// then the gated item: through its matching `{...}` block, or through
/// a terminating `;` (e.g. `mod tests;`, `use ...;`), whichever comes
/// first at nesting depth zero.
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    while let Some((end, _)) = parse_cfg_attr(tokens, i) {
        i = end;
    }
    // Also skip non-cfg attributes like `#[test]` / `#[allow(...)]`.
    while matches!(tokens.get(i).map(|t| &t.kind), Some(TokenKind::Punct('#')))
        && matches!(
            tokens.get(i + 1).map(|t| &t.kind),
            Some(TokenKind::Punct('['))
        )
    {
        let mut depth = 0;
        while i < tokens.len() {
            match tokens[i].kind {
                TokenKind::Punct('[') => depth += 1,
                TokenKind::Punct(']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        i += 1;
    }
    let mut paren = 0i32;
    while i < tokens.len() {
        match tokens[i].kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') => paren += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') => paren -= 1,
            TokenKind::Punct(';') if paren == 0 => return i + 1,
            TokenKind::Punct('{') => {
                let mut depth = 0;
                while i < tokens.len() {
                    match tokens[i].kind {
                        TokenKind::Punct('{') => depth += 1,
                        TokenKind::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                return i + 1;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                return i;
            }
            _ => {}
        }
        i += 1;
    }
    i
}

fn parse_waivers(comments: &[Comment]) -> (Vec<Waiver>, Vec<(usize, String)>) {
    let mut waivers = Vec::new();
    let mut errors = Vec::new();
    for c in comments {
        // A directive must *start* the comment — prose that merely
        // mentions `marlin-lint:` mid-sentence (docs, this file) is not
        // a waiver.
        let Some(rest) = c.text.trim_start().strip_prefix("marlin-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let parsed = (|| -> Result<Waiver, String> {
            let body = rest
                .strip_prefix("allow(")
                .ok_or("expected `allow(<rule>, <reason>)`")?;
            let body = body
                .rfind(')')
                .map(|end| &body[..end])
                .ok_or("missing closing `)`")?;
            let (rule, reason) = body
                .split_once(',')
                .ok_or("missing reason: `allow(<rule>, <reason>)`")?;
            let (rule, reason) = (rule.trim(), reason.trim());
            if !ALL_RULES.contains(&rule) {
                return Err(format!("unknown rule `{rule}`"));
            }
            if reason.is_empty() {
                return Err("empty reason".to_string());
            }
            Ok(Waiver {
                rule: rule.to_string(),
                reason: reason.to_string(),
                line: c.line,
                trailing: c.trailing,
                used: false,
            })
        })();
        match parsed {
            Ok(w) => waivers.push(w),
            Err(e) => errors.push((c.line, e)),
        }
    }
    (waivers, errors)
}

/// Run every rule over the lexed files and fill `report`.
pub fn run_all(ctxs: &mut [FileCtx], cfg: &Config, report: &mut LintReport) {
    for ctx in ctxs.iter_mut() {
        for (line, err) in std::mem::take(&mut ctx.waiver_errors) {
            report.violations.push(Diagnostic {
                rule: BAD_WAIVER.to_string(),
                file: ctx.rel.clone(),
                line,
                message: format!("malformed marlin-lint directive: {err}"),
                severity: Severity::Error,
            });
        }
        no_hash_collections(ctx, cfg, report);
        no_wallclock(ctx, cfg, report);
        no_ambient_rng(ctx, cfg, report);
        no_panic_in_lib(ctx, cfg, report);
    }
    fork_label_uniqueness(ctxs, cfg, report);
    for ctx in ctxs.iter() {
        for w in &ctx.waivers {
            if !w.used {
                report.violations.push(Diagnostic {
                    rule: UNUSED_WAIVER.to_string(),
                    file: ctx.rel.clone(),
                    line: w.line,
                    message: format!(
                        "unused waiver (no `{}` finding on the covered line) — remove it",
                        w.rule
                    ),
                    severity: Severity::Warn,
                });
            }
        }
    }
}

fn allowed(cfg: &Config, rule: &str, rel: &str) -> bool {
    cfg.rule(rule)
        .allow
        .iter()
        .any(|p| rel == p.as_str() || rel.starts_with(&format!("{p}/")))
}

fn emit(
    ctx: &mut FileCtx,
    report: &mut LintReport,
    rule: &str,
    line: usize,
    message: String,
    severity: Severity,
) -> bool {
    if let Some(reason) = ctx.take_waiver(rule, line) {
        report.waived.push(Diagnostic {
            rule: rule.to_string(),
            file: ctx.rel.clone(),
            line,
            message: format!("{message} [waived: {reason}]"),
            severity,
        });
        false
    } else {
        report.violations.push(Diagnostic {
            rule: rule.to_string(),
            file: ctx.rel.clone(),
            line,
            message,
            severity,
        });
        true
    }
}

/// `HashMap`/`HashSet` in a deterministic crate's library code:
/// iteration order is seeded per-process, so any iteration leaks
/// nondeterminism into logs, digests, and traces.
fn no_hash_collections(ctx: &mut FileCtx, cfg: &Config, report: &mut LintReport) {
    if ctx.class != FileClass::Lib
        || !cfg
            .rule(NO_HASH_COLLECTIONS)
            .crates
            .contains(&ctx.crate_name)
    {
        return;
    }
    if allowed(cfg, NO_HASH_COLLECTIONS, &ctx.rel) {
        return;
    }
    let mut hits: Vec<(usize, String)> = Vec::new();
    for (i, t) in ctx.lexed.tokens.iter().enumerate() {
        if ctx.is_suppressed(i) {
            continue;
        }
        if let TokenKind::Ident(s) = &t.kind {
            if s == "HashMap" || s == "HashSet" {
                hits.push((t.line, s.clone()));
            }
        }
    }
    for (line, name) in hits {
        let fix = if name == "HashMap" {
            "BTreeMap"
        } else {
            "BTreeSet"
        };
        emit(
            ctx,
            report,
            NO_HASH_COLLECTIONS,
            line,
            format!(
                "`{name}` in deterministic crate `{}` — use `{fix}` or waive with a \
                 lookup-only justification",
                ctx.crate_name
            ),
            Severity::Error,
        );
    }
}

/// Wall-clock reads outside the measurement allowlist: virtual time is
/// the only clock deterministic code may observe.
fn no_wallclock(ctx: &mut FileCtx, cfg: &Config, report: &mut LintReport) {
    if ctx.class != FileClass::Lib || allowed(cfg, NO_WALLCLOCK, &ctx.rel) {
        return;
    }
    let mut hits: Vec<(usize, String)> = Vec::new();
    for (i, t) in ctx.lexed.tokens.iter().enumerate() {
        if ctx.is_suppressed(i) {
            continue;
        }
        if let TokenKind::Ident(s) = &t.kind {
            if s == "Instant" || s == "SystemTime" || s == "UNIX_EPOCH" {
                hits.push((t.line, s.clone()));
            }
        }
    }
    for (line, name) in hits {
        emit(
            ctx,
            report,
            NO_WALLCLOCK,
            line,
            format!(
                "`{name}` outside the wall-clock allowlist — deterministic code reads \
                 virtual time only (allowlist lives in lint.toml)"
            ),
            Severity::Error,
        );
    }
}

const AMBIENT_RNG_IDENTS: [&str; 9] = [
    "thread_rng",
    "ThreadRng",
    "OsRng",
    "StdRng",
    "SmallRng",
    "from_entropy",
    "RandomState",
    "DefaultHasher",
    "getrandom",
];

/// Ambient randomness: anything not derived from a labeled `DetRng`
/// fork breaks seed-replayability — in tests and examples too.
fn no_ambient_rng(ctx: &mut FileCtx, cfg: &Config, report: &mut LintReport) {
    if allowed(cfg, NO_AMBIENT_RNG, &ctx.rel) {
        return;
    }
    let mut hits: Vec<(usize, String)> = Vec::new();
    for t in &ctx.lexed.tokens {
        if let TokenKind::Ident(s) = &t.kind {
            if AMBIENT_RNG_IDENTS.contains(&s.as_str()) {
                hits.push((t.line, s.clone()));
            }
        }
    }
    for (line, name) in hits {
        emit(
            ctx,
            report,
            NO_AMBIENT_RNG,
            line,
            format!("`{name}` is ambient randomness — all streams must fork from `DetRng`"),
            Severity::Error,
        );
    }
}

/// One `.fork(<label>)` call site with a statically resolvable label.
#[derive(Clone, Debug)]
struct ForkSite {
    file_idx: usize,
    line: usize,
    label: u64,
    spelling: String,
}

/// Two forks of the same parent with the same label are *identical*
/// streams (fork is pure). That is documented behavior, but as a
/// static label it is almost always an accident — the PR 7 footgun —
/// so statically resolvable labels must be unique workspace-wide.
fn fork_label_uniqueness(ctxs: &mut [FileCtx], cfg: &Config, report: &mut LintReport) {
    let mut sites: Vec<ForkSite> = Vec::new();
    for (file_idx, ctx) in ctxs.iter().enumerate() {
        if ctx.class == FileClass::TestOrBench || allowed(cfg, FORK_LABEL_UNIQUENESS, &ctx.rel) {
            continue;
        }
        let consts = const_table(&ctx.lexed.tokens);
        let toks = &ctx.lexed.tokens;
        for i in 0..toks.len() {
            if ctx.is_suppressed(i) {
                continue;
            }
            // Pattern: `.` `fork` `(` <single-token label> `)`
            let dot = matches!(toks[i].kind, TokenKind::Punct('.'));
            let is_fork = matches!(toks.get(i + 1).map(|t| &t.kind), Some(TokenKind::Ident(s)) if s == "fork");
            let open = matches!(
                toks.get(i + 2).map(|t| &t.kind),
                Some(TokenKind::Punct('('))
            );
            let close = matches!(
                toks.get(i + 4).map(|t| &t.kind),
                Some(TokenKind::Punct(')'))
            );
            if !(dot && is_fork && open && close) {
                continue;
            }
            let (label, spelling) = match toks.get(i + 3).map(|t| &t.kind) {
                Some(TokenKind::Int(s)) => match lexer::parse_int(s) {
                    Some(v) => (v, s.clone()),
                    None => continue,
                },
                Some(TokenKind::Ident(name)) => match consts.get(name.as_str()) {
                    Some(&v) => (v, name.clone()),
                    None => continue, // dynamic label; not statically checkable
                },
                _ => continue,
            };
            sites.push(ForkSite {
                file_idx,
                line: toks[i + 1].line,
                label,
                spelling,
            });
        }
    }
    let mut by_label: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (idx, site) in sites.iter().enumerate() {
        by_label.entry(site.label).or_default().push(idx);
    }
    for (label, group) in by_label {
        if group.len() < 2 {
            continue;
        }
        let locations: Vec<String> = group
            .iter()
            .map(|&i| {
                format!(
                    "{}:{} ({})",
                    ctxs[sites[i].file_idx].rel, sites[i].line, sites[i].spelling
                )
            })
            .collect();
        for &i in &group {
            let site = &sites[i];
            let others: Vec<&String> = locations
                .iter()
                .enumerate()
                .filter(|&(j, _)| group[j] != i)
                .map(|(_, l)| l)
                .collect();
            let message = format!(
                "`DetRng::fork({})` label {label} collides with {} — same label, same parent \
                 ⇒ identical stream; pick a fresh label",
                site.spelling,
                others
                    .iter()
                    .map(|s| s.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            let (file_idx, line) = (site.file_idx, site.line);
            emit(
                &mut ctxs[file_idx],
                report,
                FORK_LABEL_UNIQUENESS,
                line,
                message,
                Severity::Error,
            );
        }
    }
}

/// Build a `const NAME: <ty> = <int>;` table for one file.
fn const_table(tokens: &[Token]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for i in 0..tokens.len() {
        let is_const = matches!(&tokens[i].kind, TokenKind::Ident(s) if s == "const");
        if !is_const {
            continue;
        }
        let Some(TokenKind::Ident(name)) = tokens.get(i + 1).map(|t| &t.kind) else {
            continue;
        };
        // Scan a short window for `= <int> ;`.
        for j in (i + 2)..tokens.len().min(i + 8) {
            if matches!(tokens[j].kind, TokenKind::Punct('=')) {
                if let Some(TokenKind::Int(s)) = tokens.get(j + 1).map(|t| &t.kind) {
                    if matches!(
                        tokens.get(j + 2).map(|t| &t.kind),
                        Some(TokenKind::Punct(';'))
                    ) {
                        if let Some(v) = lexer::parse_int(s) {
                            out.insert(name.clone(), v);
                        }
                    }
                }
                break;
            }
        }
    }
    out
}

/// Panic sites (`unwrap()`, `expect()`, `panic!`-family) in library
/// code. Warn severity: the count rides the `lint.toml` budget, which
/// only ratchets down.
fn no_panic_in_lib(ctx: &mut FileCtx, cfg: &Config, report: &mut LintReport) {
    if ctx.class != FileClass::Lib || allowed(cfg, NO_PANIC_IN_LIB, &ctx.rel) {
        return;
    }
    let mut hits: Vec<(usize, String)> = Vec::new();
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        if ctx.is_suppressed(i) {
            continue;
        }
        match &toks[i].kind {
            TokenKind::Ident(s) if s == "unwrap" || s == "expect" => {
                let method = i > 0 && matches!(toks[i - 1].kind, TokenKind::Punct('.'));
                let called = matches!(
                    toks.get(i + 1).map(|t| &t.kind),
                    Some(TokenKind::Punct('('))
                );
                if method && called {
                    hits.push((toks[i].line, format!("{s}()")));
                }
            }
            TokenKind::Ident(s)
                if s == "panic" || s == "unreachable" || s == "todo" || s == "unimplemented" =>
            {
                if matches!(
                    toks.get(i + 1).map(|t| &t.kind),
                    Some(TokenKind::Punct('!'))
                ) {
                    hits.push((toks[i].line, format!("{s}!")));
                }
            }
            _ => {}
        }
    }
    for (line, what) in hits {
        let counted = emit(
            ctx,
            report,
            NO_PANIC_IN_LIB,
            line,
            format!(
                "`{what}` in library code — return a `Result`, or keep it with an \
                 invariant-stating `expect` and budget headroom"
            ),
            Severity::Warn,
        );
        if counted {
            report.panic_findings += 1;
        }
    }
}
