//! Rule engine behind the `hyperlint` binary: token-level source checks
//! for repo invariants the compiler cannot express.
//!
//! Rules (each suppressible per-line with a `// lint:allow(<rule>)`
//! comment — comma lists like `lint:allow(rule1,rule2)` work — on the
//! offending line or the line above; markers that suppress nothing are
//! reported as warnings, promoted to errors by `--strict-allows`):
//!
//! * `direct-sync` — `crates/{shard,exec,server}/src` must not name
//!   `parking_lot` or the shimmed `std::sync` primitives (`Mutex`,
//!   `RwLock`, `Condvar`, `mpsc`, guards) directly; they go through
//!   `sanity::sync` so `--cfg sanity_check` instrumentation sees every
//!   acquisition.
//! * `no-unwrap` — no `.unwrap()` / `.expect(` (or `_err` variants) on
//!   server request paths and commit-log I/O: `server/src/server.rs`,
//!   `server/src/multi.rs`, `exec/src/event_loop.rs`,
//!   `exec/src/frame.rs`,
//!   `shard/src/{coordinator,migrate,replica,store}.rs`. A malformed
//!   frame or a full disk must surface as a typed error, not a panic.
//! * `condvar-hold` — in the same crates as `direct-sync`, a
//!   `Condvar::wait` while a *second* lock guard is live is flagged:
//!   the wait releases only the guard it is handed, so any other held
//!   lock stays held for the whole sleep — a classic lost-wakeup /
//!   deadlock shape. Tracked per function by brace depth: `.lock()`
//!   acquisitions minus `drop(...)` releases.
//!
//! Test modules (`#[cfg(test)] mod ... { ... }`), comments and string
//! literals are excluded before matching.
//!
//! Not rules here, because the compiler holds them: an operation missing
//! from the codec, the dispatcher or the client (all three are generated
//! from `hypermodel::store_ops!`), and a wire-decoded length sizing an
//! allocation unclamped (`Wire::get_all` in `server/src/codec.rs` is the
//! only place one sizes anything).

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: PathBuf,
    /// 1-based; 0 when the finding is about a whole missing file.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

pub const RULE_DIRECT_SYNC: &str = "direct-sync";
pub const RULE_NO_UNWRAP: &str = "no-unwrap";
pub const RULE_CONDVAR_HOLD: &str = "condvar-hold";
/// Pseudo-rule for `lint:allow` markers that suppress nothing.
pub const RULE_UNUSED_ALLOW: &str = "unused-allow";

/// Every real rule `hyperlint` owns. A `lint:allow` marker naming a
/// rule outside this set (e.g. a `hyperstatic` rule) is someone else's
/// business and never counts as unused here.
pub const HYPERLINT_RULES: &[&str] = &[RULE_DIRECT_SYNC, RULE_NO_UNWRAP, RULE_CONDVAR_HOLD];

// ---------------------------------------------------------------------------
// Source preprocessing
// ---------------------------------------------------------------------------

/// Per-line view of a source file with comments and string-literal
/// bodies blanked out, line comments preserved separately (for
/// `lint:allow` detection), and `#[cfg(test)] mod` regions marked.
pub struct Prepared {
    /// Cleaned line text (same line count as the input).
    pub lines: Vec<String>,
    /// Raw line text (for suppression comments).
    raw: Vec<String>,
    /// True for lines inside a `#[cfg(test)]` module.
    pub in_test: Vec<bool>,
    /// Parsed `lint:allow(...)` markers: 1-based line → rule names.
    /// Comma lists (`lint:allow(rule1,rule2)`) yield one entry per rule.
    allows: Vec<(usize, Vec<String>)>,
}

impl Prepared {
    /// A finding for `rule` on 1-based line `n` is suppressed when that
    /// line or the previous one carries a `lint:allow` marker naming
    /// `rule` (possibly inside a comma list).
    pub fn suppressed(&self, n: usize, rule: &str) -> bool {
        self.allows
            .iter()
            .any(|(m, rules)| (*m == n || *m + 1 == n) && rules.iter().any(|r| r == rule))
    }

    /// All `lint:allow` markers in the file: (1-based line, rule names).
    pub fn allow_markers(&self) -> &[(usize, Vec<String>)] {
        &self.allows
    }

    /// Raw (uncleaned) line text, for diagnostics.
    pub fn raw_lines(&self) -> &[String] {
        &self.raw
    }
}

/// Parse every `lint:allow(rule[,rule...])` marker in `raw` source
/// lines. Rule names are trimmed; empty segments are dropped.
fn parse_allows(raw: &[String]) -> Vec<(usize, Vec<String>)> {
    let mut out = Vec::new();
    for (idx, line) in raw.iter().enumerate() {
        let mut rules = Vec::new();
        let mut from = 0;
        while let Some(pos) = line[from..].find("lint:allow(") {
            let at = from + pos + "lint:allow(".len();
            let Some(close) = line[at..].find(')') else {
                break;
            };
            for seg in line[at..at + close].split(',') {
                let r = seg.trim();
                if !r.is_empty() {
                    rules.push(r.to_string());
                }
            }
            from = at + close + 1;
        }
        if !rules.is_empty() {
            out.push((idx + 1, rules));
        }
    }
    out
}

/// Blank out comments and string-literal contents, preserving line
/// structure so findings keep accurate line numbers.
pub fn prepare(src: &str) -> Prepared {
    let raw: Vec<String> = src.lines().map(str::to_string).collect();
    let mut lines = Vec::with_capacity(raw.len());
    let mut in_block_comment = false;
    for line in &raw {
        let mut out = String::with_capacity(line.len());
        let bytes: Vec<char> = line.chars().collect();
        let mut i = 0;
        while i < bytes.len() {
            if in_block_comment {
                if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                    in_block_comment = false;
                    i += 2;
                } else {
                    i += 1;
                }
                continue;
            }
            let c = bytes[i];
            match c {
                '/' if bytes.get(i + 1) == Some(&'/') => break, // line comment
                '/' if bytes.get(i + 1) == Some(&'*') => {
                    in_block_comment = true;
                    i += 2;
                }
                '"' => {
                    // Blank the string body (escapes honored).
                    out.push('"');
                    i += 1;
                    while i < bytes.len() {
                        match bytes[i] {
                            '\\' => i += 2,
                            '"' => {
                                out.push('"');
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                }
                '\'' => {
                    // Char literal ('x', '\n') vs lifetime ('a). Only
                    // blank genuine char literals.
                    let close = if bytes.get(i + 1) == Some(&'\\') {
                        bytes[i + 2..]
                            .iter()
                            .position(|&b| b == '\'')
                            .map(|p| p + i + 2)
                    } else if bytes.get(i + 2) == Some(&'\'') {
                        Some(i + 2)
                    } else {
                        None
                    };
                    if let Some(end) = close {
                        out.push('\'');
                        out.push('\'');
                        i = end + 1;
                    } else {
                        out.push(c);
                        i += 1;
                    }
                }
                _ => {
                    out.push(c);
                    i += 1;
                }
            }
        }
        lines.push(out);
    }

    // Mark `#[cfg(test)] mod` bodies by brace matching on cleaned text.
    let mut in_test = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let t = lines[i].trim();
        if t.contains("#[cfg(test)]") {
            // The mod declaration follows within a few lines (possibly
            // with more attributes between).
            let mut j = i;
            let mut found_mod = None;
            while j < lines.len() && j <= i + 4 {
                let tj = lines[j].trim_start();
                if tj.starts_with("mod ") || tj.starts_with("pub mod ") {
                    found_mod = Some(j);
                    break;
                }
                j += 1;
            }
            if let Some(start) = found_mod {
                let mut depth = 0i32;
                let mut opened = false;
                let mut k = start;
                while k < lines.len() {
                    for c in lines[k].chars() {
                        match c {
                            '{' => {
                                depth += 1;
                                opened = true;
                            }
                            '}' => depth -= 1,
                            _ => {}
                        }
                    }
                    in_test[k] = true;
                    if opened && depth <= 0 {
                        break;
                    }
                    k += 1;
                }
                i = k + 1;
                continue;
            }
        }
        i += 1;
    }

    let allows = parse_allows(&raw);
    Prepared {
        lines,
        raw,
        in_test,
        allows,
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Does `needle` occur in `hay` delimited by non-identifier characters?
fn word_hit(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(hay[..at].chars().next_back().unwrap_or(' '));
        let after = hay[at + needle.len()..].chars().next();
        let after_ok = after.is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len().max(1);
    }
    false
}

/// Drop raw findings that a `lint:allow` marker suppresses.
pub fn filter_suppressed(
    p: &Prepared,
    rule: &str,
    raw: Vec<(usize, String)>,
) -> Vec<(usize, String)> {
    raw.into_iter()
        .filter(|(n, _)| !p.suppressed(*n, rule))
        .collect()
}

/// `lint:allow` markers in `p` that suppress nothing. `owned` is the
/// rule namespace this binary is responsible for (markers naming other
/// tools' rules are ignored); `raw_lines_for(rule)` yields the 1-based
/// lines with *unsuppressed* findings for `rule` in this file. A marker
/// at line `m` is used when a raw finding sits on `m` or `m + 1`.
pub fn unused_allows(
    p: &Prepared,
    owned: &[&str],
    mut raw_lines_for: impl FnMut(&str) -> Vec<usize>,
) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (m, rules) in p.allow_markers() {
        for rule in rules {
            if !owned.iter().any(|r| r == rule) {
                continue;
            }
            let lines = raw_lines_for(rule);
            if !lines.contains(m) && !lines.contains(&(m + 1)) {
                out.push((
                    *m,
                    format!("lint:allow({rule}) suppresses nothing; remove it"),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: direct-sync
// ---------------------------------------------------------------------------

/// Primitives that must come from `sanity::sync` instead of `std::sync`.
const SHIMMED: &[&str] = &[
    "Mutex",
    "MutexGuard",
    "RwLock",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "Condvar",
    "mpsc",
];

/// Flag direct `parking_lot` / shimmed `std::sync` usage in `src`.
/// Returns `(line, message)` pairs (1-based lines).
pub fn find_direct_sync(src: &str) -> Vec<(usize, String)> {
    let p = prepare(src);
    filter_suppressed(&p, RULE_DIRECT_SYNC, find_direct_sync_raw(&p))
}

/// As [`find_direct_sync`] but without applying `lint:allow`
/// suppressions — the input for unused-suppression accounting.
pub fn find_direct_sync_raw(p: &Prepared) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in p.lines.iter().enumerate() {
        let n = idx + 1;
        if p.in_test[idx] {
            continue;
        }
        if word_hit(line, "parking_lot") {
            out.push((
                n,
                "direct parking_lot reference; use sanity::sync instead".to_string(),
            ));
            continue;
        }
        let mut start = 0;
        while let Some(pos) = line[start..].find("std::sync::") {
            let at = start + pos + "std::sync::".len();
            let rest = &line[at..];
            let flagged = if let Some(body) = rest.strip_prefix('{') {
                let end = body.find('}').unwrap_or(body.len());
                SHIMMED.iter().any(|s| word_hit(&body[..end], s))
            } else {
                SHIMMED.iter().any(|s| {
                    rest.starts_with(s)
                        && !is_ident_char(rest[s.len()..].chars().next().unwrap_or(' '))
                })
            };
            if flagged {
                out.push((
                    n,
                    "direct std::sync lock/channel import; use sanity::sync instead".to_string(),
                ));
                break;
            }
            start = at;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: no-unwrap
// ---------------------------------------------------------------------------

const PANICKY: &[&str] = &[".unwrap()", ".unwrap_err()", ".expect(", ".expect_err("];

/// Flag panicking result/option consumption in `src` outside tests.
pub fn find_unwraps(src: &str) -> Vec<(usize, String)> {
    let p = prepare(src);
    filter_suppressed(&p, RULE_NO_UNWRAP, find_unwraps_raw(&p))
}

/// As [`find_unwraps`] but without applying suppressions.
pub fn find_unwraps_raw(p: &Prepared) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in p.lines.iter().enumerate() {
        let n = idx + 1;
        if p.in_test[idx] {
            continue;
        }
        for pat in PANICKY {
            if line.contains(pat) {
                out.push((
                    n,
                    format!("`{pat}` on a request/commit path; return a typed error"),
                ));
                break;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: condvar-hold
// ---------------------------------------------------------------------------

/// Flag `Condvar::wait` calls made while more than one lock guard is
/// live. `wait` atomically releases the guard it is *passed*; any other
/// lock the caller holds is kept across the sleep, which serializes
/// every thread needing that lock behind a wakeup that may depend on it.
///
/// Heuristic, per function body: each `.lock()` occurrence pushes a
/// guard at the current brace depth, `drop(...)` pops the most recent,
/// and closing a block releases the guards acquired inside it. A
/// `.wait(` / `.wait_timeout(` / `.wait_while(` with two or more guards
/// live is a finding.
pub fn find_condvar_hold(src: &str) -> Vec<(usize, String)> {
    let p = prepare(src);
    filter_suppressed(&p, RULE_CONDVAR_HOLD, find_condvar_hold_raw(&p))
}

/// As [`find_condvar_hold`] but without applying suppressions.
pub fn find_condvar_hold_raw(p: &Prepared) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    // Depth at which the current function's body opened; None outside.
    let mut fn_entry: Option<i32> = None;
    let mut pending_fn = false;
    // Brace depth at which each live lock guard was acquired.
    let mut guards: Vec<i32> = Vec::new();
    for (idx, line) in p.lines.iter().enumerate() {
        let n = idx + 1;
        if fn_entry.is_none() && word_hit(line, "fn") {
            pending_fn = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending_fn && fn_entry.is_none() {
                        fn_entry = Some(depth);
                        pending_fn = false;
                        guards.clear();
                    }
                }
                '}' => {
                    depth -= 1;
                    guards.retain(|&d| d <= depth);
                    if fn_entry.is_some_and(|entry| depth < entry) {
                        fn_entry = None;
                        guards.clear();
                    }
                }
                _ => {}
            }
        }
        if fn_entry.is_none() || p.in_test[idx] {
            continue;
        }
        for _ in 0..line.matches(".lock()").count() {
            guards.push(depth);
        }
        for _ in 0..line.matches("drop(").count() {
            guards.pop();
        }
        let waits = line.contains(".wait(")
            || line.contains(".wait_timeout(")
            || line.contains(".wait_while(");
        if waits && guards.len() >= 2 {
            out.push((
                n,
                format!(
                    "condvar wait with {} lock guards live; wait releases only \
                     the guard it is passed — drop the others first",
                    guards.len()
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Tree driver
// ---------------------------------------------------------------------------

/// Directories whose sources must route locks through `sanity::sync`.
const SYNC_SCOPE: &[&str] = &["crates/shard/src", "crates/exec/src", "crates/server/src"];

/// Files where panicking consumption is banned.
const UNWRAP_SCOPE: &[&str] = &[
    "crates/server/src/server.rs",
    "crates/server/src/multi.rs",
    "crates/exec/src/event_loop.rs",
    "crates/exec/src/frame.rs",
    "crates/shard/src/coordinator.rs",
    "crates/shard/src/migrate.rs",
    "crates/shard/src/replica.rs",
    "crates/shard/src/store.rs",
];

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn missing(root: &Path, rel: &str, rule: &'static str) -> Finding {
    Finding {
        file: root.join(rel),
        line: 0,
        rule,
        message: "expected file missing; rule cannot be verified".to_string(),
    }
}

/// Everything one `lint_tree` pass produced.
pub struct LintReport {
    /// Rule violations (fail the build).
    pub findings: Vec<Finding>,
    /// Unused-suppression warnings (`unused-allow`); errors only under
    /// `--strict-allows`.
    pub warnings: Vec<Finding>,
    /// Number of files scanned.
    pub scanned: usize,
}

/// Run every rule against the workspace at `root`.
pub fn lint_tree(root: &Path) -> LintReport {
    let mut findings = Vec::new();
    let mut warnings = Vec::new();
    let mut scanned = 0usize;

    let unwrap_files: Vec<PathBuf> = UNWRAP_SCOPE.iter().map(|rel| root.join(rel)).collect();
    let mut unwrap_done = vec![false; unwrap_files.len()];

    // Line-based rules over the three migrated crates, one prepare per
    // file so suppression usage can be accounted across all rules.
    for dir in SYNC_SCOPE {
        let mut files = Vec::new();
        rs_files(&root.join(dir), &mut files);
        if files.is_empty() {
            findings.push(missing(root, dir, RULE_DIRECT_SYNC));
            continue;
        }
        for file in files {
            let Ok(src) = std::fs::read_to_string(&file) else {
                continue;
            };
            scanned += 1;
            let p = prepare(&src);
            let raw_sync = find_direct_sync_raw(&p);
            let raw_cv = find_condvar_hold_raw(&p);
            let unwrap_idx = unwrap_files.iter().position(|u| *u == file);
            let raw_uw = match unwrap_idx {
                Some(i) => {
                    unwrap_done[i] = true;
                    find_unwraps_raw(&p)
                }
                None => Vec::new(),
            };
            let per_rule: &[(&'static str, &Vec<(usize, String)>)] = &[
                (RULE_DIRECT_SYNC, &raw_sync),
                (RULE_CONDVAR_HOLD, &raw_cv),
                (RULE_NO_UNWRAP, &raw_uw),
            ];
            for (rule, raw) in per_rule {
                for (line, message) in raw.iter() {
                    if !p.suppressed(*line, rule) {
                        findings.push(Finding {
                            file: file.clone(),
                            line: *line,
                            rule,
                            message: message.clone(),
                        });
                    }
                }
            }
            let lines_for = |rule: &str| -> Vec<usize> {
                per_rule
                    .iter()
                    .find(|(r, _)| *r == rule)
                    .map(|(_, raw)| raw.iter().map(|(l, _)| *l).collect())
                    .unwrap_or_default()
            };
            for (line, message) in unused_allows(&p, HYPERLINT_RULES, lines_for) {
                warnings.push(Finding {
                    file: file.clone(),
                    line,
                    rule: RULE_UNUSED_ALLOW,
                    message,
                });
            }
        }
    }

    // no-unwrap files that were not already covered above (normally all
    // of them sit inside SYNC_SCOPE; a missing file still needs a
    // finding).
    for (i, rel) in UNWRAP_SCOPE.iter().enumerate() {
        if unwrap_done[i] {
            continue;
        }
        let file = root.join(rel);
        let Ok(src) = std::fs::read_to_string(&file) else {
            findings.push(missing(root, rel, RULE_NO_UNWRAP));
            continue;
        };
        scanned += 1;
        let p = prepare(&src);
        for (line, message) in filter_suppressed(&p, RULE_NO_UNWRAP, find_unwraps_raw(&p)) {
            findings.push(Finding {
                file: file.clone(),
                line,
                rule: RULE_NO_UNWRAP,
                message,
            });
        }
    }

    LintReport {
        findings,
        warnings,
        scanned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_sync_flags_parking_lot_and_std_locks() {
        let src = "use parking_lot::Mutex;\nuse std::sync::{Arc, Mutex};\nuse std::sync::mpsc::channel;\nuse std::sync::Arc;\n";
        let hits = find_direct_sync(src);
        assert_eq!(
            hits.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn direct_sync_ignores_comments_tests_and_suppressions() {
        let src = "\
// parking_lot is fine to mention here
use std::sync::Arc;
// lint:allow(direct-sync) — reviewed: bootstrap only
use std::sync::Mutex;
#[cfg(test)]
mod tests {
    use std::sync::Mutex;
}
";
        assert!(find_direct_sync(src).is_empty());
    }

    #[test]
    fn unwrap_rule_matches_only_panicking_forms() {
        let src = "\
let a = x.unwrap();
let b = x.unwrap_or(0);
let c = x.unwrap_or_else(|| 0);
let d = x.expect(\"boom\");
let e = x.unwrap_err();
let f = \"string with .unwrap() inside\";
";
        let hits = find_unwraps(src);
        assert_eq!(
            hits.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            vec![1, 4, 5]
        );
    }

    #[test]
    fn condvar_hold_flags_wait_with_second_guard() {
        let src = "\
fn bad(&self) {
    let stats = self.stats.lock();
    let mut inner = self.inner.lock();
    inner = self.cv.wait(inner);
}
";
        let hits = find_condvar_hold(src);
        assert_eq!(hits.iter().map(|(l, _)| *l).collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn condvar_hold_allows_single_guard_wait() {
        let src = "\
fn ok(&self) {
    let mut inner = self.inner.lock();
    while !inner.ready {
        inner = self.cv.wait(inner);
    }
}
";
        assert!(find_condvar_hold(src).is_empty());
    }

    #[test]
    fn condvar_hold_respects_drop_and_block_scope() {
        let src = "\
fn dropped(&self) {
    let stats = self.stats.lock();
    drop(stats);
    let mut inner = self.inner.lock();
    inner = self.cv.wait(inner);
}
fn scoped(&self) {
    {
        let stats = self.stats.lock();
    }
    let mut inner = self.inner.lock();
    inner = self.cv.wait(inner);
}
";
        assert!(find_condvar_hold(src).is_empty());
    }

    #[test]
    fn condvar_hold_suppressible_and_test_exempt() {
        let suppressed = "\
fn bad(&self) {
    let a = self.a.lock();
    let mut b = self.b.lock();
    // lint:allow(condvar-hold) — reviewed: a is a leaf lock
    b = self.cv.wait(b);
}
";
        assert!(find_condvar_hold(suppressed).is_empty());
        let in_test = "\
#[cfg(test)]
mod tests {
    fn bad() {
        let a = A.lock();
        let mut b = B.lock();
        b = CV.wait(b);
    }
}
";
        assert!(find_condvar_hold(in_test).is_empty());
    }

    #[test]
    fn allow_comma_list_suppresses_both_rules() {
        let src = "\
// lint:allow(direct-sync, no-unwrap)
use std::sync::Mutex;
let v = x.unwrap();
";
        assert!(find_direct_sync(src).is_empty());
        // The marker sits on line 1, the unwrap on line 3 — only the
        // direct-sync hit on line 2 is covered.
        assert_eq!(find_unwraps(src).len(), 1);
        let both = "use std::sync::Mutex; // lint:allow(direct-sync,no-unwrap)\nlet v = x.unwrap(); // lint:allow(no-unwrap)\n";
        assert!(find_direct_sync(both).is_empty());
        assert!(find_unwraps(both).is_empty());
    }

    #[test]
    fn unused_allow_reported_only_for_owned_idle_markers() {
        let src = "\
// lint:allow(no-unwrap) — nothing to suppress here
let a = 1;
// lint:allow(static-lock-cycle) — someone else's rule
let b = x.unwrap(); // lint:allow(no-unwrap)
";
        let p = prepare(src);
        let raw = find_unwraps_raw(&p);
        let unused = unused_allows(&p, HYPERLINT_RULES, |rule| {
            if rule == RULE_NO_UNWRAP {
                raw.iter().map(|(l, _)| *l).collect()
            } else {
                Vec::new()
            }
        });
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].0, 1);
        assert!(unused[0].1.contains("no-unwrap"));
    }

    #[test]
    fn marker_above_finding_counts_as_used() {
        let src = "\
// lint:allow(no-unwrap) — reviewed
let v = x.unwrap();
";
        let p = prepare(src);
        assert!(find_unwraps(src).is_empty());
        let raw = find_unwraps_raw(&p);
        let unused = unused_allows(&p, HYPERLINT_RULES, |_| {
            raw.iter().map(|(l, _)| *l).collect()
        });
        assert!(unused.is_empty());
    }
}
