//! klinq-lint — the workspace invariant linter.
//!
//! Four PRs in a row ended with a hand audit: the PR 7 unwrap/expect
//! sweep of the serve path, PR 4's "floors live only in `stat_floors`"
//! policy, PR 5's `as_f64() as u64` truncation bug, the SAFETY-comment
//! discipline around the `vendor/epoll` bindings. None of that was
//! machine-checked, so every new PR could silently regress it. This
//! crate turns those audits into rules over a comment/string-aware
//! lexer ([`lexer`]) and runs as a CI gate (`lint-invariants` in
//! `.github/workflows/ci.yml`) plus a self-test in this crate's own
//! suite, so `cargo test` alone re-verifies the tree.
//!
//! # Rules
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-panic-serve` | no `unwrap`/`expect`/panic-family macros/indexing `assert!` in `crates/klinq-serve/src` or the shot block its wire decoder fills (`klinq_core::block`), outside `#[cfg(test)]` |
//! | `unsafe-confinement` | `unsafe` only in `vendor/epoll` + `klinq_fixed::q16`, each block under a `// SAFETY:` comment; every other first-party crate root carries `#![forbid(unsafe_code)]` |
//! | `stat-floor-locality` | fidelity/accuracy threshold literals live in `klinq_core::stat_floors`, nowhere else |
//! | `determinism` | no `Instant::now`/`SystemTime::now`/`thread_rng`-style ambient nondeterminism in the wire codec, shot blocks, batch engine, fixed-point, DSP kernels, the Q16.16 datapath (`klinq_fpga::engine`, `klinq_fpga::quant`), persist, or what a load regenerates (`klinq-sim`, `klinq_core::discriminator`) |
//! | `lossy-cast` | no `as_f64(...) as u64`-shaped narrowing of parsed values (the benchdiff PoolSize bug class) |
//!
//! A deliberate exception is annotated in the source it excuses:
//!
//! ```text
//! // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic; see module docs
//! let guard = self.tx.read().unwrap();
//! ```
//!
//! The annotation covers its own line and the first code line after its
//! contiguous comment block. The reason text is mandatory — an empty
//! reason (or an unknown rule name) is itself a violation, reported
//! under the `annotation` meta-rule, so suppressions stay documented.

#![forbid(unsafe_code)]

pub mod lexer;

use lexer::{lex, Comment, Lexed, TokKind, Token};
use serde_json::Value;
use std::path::{Path, PathBuf};

/// The annotatable rule names, in reporting order.
pub const RULES: [&str; 5] = [
    "no-panic-serve",
    "unsafe-confinement",
    "stat-floor-locality",
    "determinism",
    "lossy-cast",
];

/// Meta-rule for malformed/empty-reason `klinq-lint:` annotations.
pub const ANNOTATION_RULE: &str = "annotation";

/// Files where `unsafe` is allowed (with a `// SAFETY:` comment): the
/// epoll syscall bindings and the fixed-point float→int conversion.
const UNSAFE_ALLOWLIST: [&str; 2] = ["vendor/epoll/", "crates/klinq-fixed/src/q16.rs"];

/// Crate roots that hold the workspace's `unsafe` and therefore carry
/// `#![deny(unsafe_op_in_unsafe_fn)]` instead of `#![forbid(unsafe_code)]`.
const UNSAFE_CRATE_ROOTS: [&str; 2] = ["vendor/epoll/src/lib.rs", "crates/klinq-fixed/src/lib.rs"];

/// One linter finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Which rule fired (one of [`RULES`] or [`ANNOTATION_RULE`]).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// An in-source suppression: `// klinq-lint: allow(<rule>) <reason>`.
#[derive(Debug, Clone)]
struct Allow {
    rule: String,
    /// First line the allow covers (the comment's own first line).
    from: u32,
    /// Last line the allow covers: one past its contiguous comment
    /// block, i.e. the first code line below the annotation.
    to: u32,
}

/// Inclusive line ranges (attribute line through closing brace).
type Spans = Vec<(u32, u32)>;

fn in_spans(spans: &Spans, line: u32) -> bool {
    spans.iter().any(|&(a, b)| a <= line && line <= b)
}

fn is_punct(tok: &Token, c: char) -> bool {
    tok.kind == TokKind::Punct && tok.text.len() == 1 && tok.text.as_bytes()[0] == c as u8
}

fn is_ident(tok: &Token, name: &str) -> bool {
    tok.kind == TokKind::Ident && tok.text == name
}

/// Index of the matching `close` for the `open` delimiter at
/// `open_idx`, counting nesting. `None` when unbalanced (malformed
/// input — rules bail instead of guessing).
fn matching(tokens: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (i, tok) in tokens.iter().enumerate().skip(open_idx) {
        if is_punct(tok, open) {
            depth += 1;
        } else if is_punct(tok, close) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Line spans of `#[test]` / `#[cfg(test)]`-gated items (functions and
/// modules). A file-level `#![cfg(test)]` marks the whole file.
fn test_spans(tokens: &[Token]) -> Spans {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if !is_punct(&tokens[i], '#') {
            i += 1;
            continue;
        }
        let inner = i + 1 < tokens.len() && is_punct(&tokens[i + 1], '!');
        let open = i + if inner { 2 } else { 1 };
        if open >= tokens.len() || !is_punct(&tokens[open], '[') {
            i += 1;
            continue;
        }
        let Some(close) = matching(tokens, open, '[', ']') else {
            break;
        };
        let attr = &tokens[open + 1..close];
        let first = attr.first();
        let is_test_attr = match first {
            Some(t) if is_ident(t, "test") && attr.len() == 1 => true,
            Some(t) if is_ident(t, "cfg") => attr.iter().any(|t| is_ident(t, "test")),
            _ => false,
        };
        if !is_test_attr {
            i = close + 1;
            continue;
        }
        if inner {
            // `#![cfg(test)]`: the enclosing scope (for our purposes,
            // the whole file) is test-only.
            spans.push((1, u32::MAX));
            return spans;
        }
        let attr_line = tokens[i].line;
        // Skip any further attributes, then find the item's body brace
        // (or a `;` for braceless items).
        let mut j = close + 1;
        while j + 1 < tokens.len() && is_punct(&tokens[j], '#') && is_punct(&tokens[j + 1], '[') {
            match matching(tokens, j + 1, '[', ']') {
                Some(c) => j = c + 1,
                None => return spans,
            }
        }
        while j < tokens.len() && !is_punct(&tokens[j], '{') && !is_punct(&tokens[j], ';') {
            j += 1;
        }
        if j < tokens.len() && is_punct(&tokens[j], '{') {
            if let Some(end) = matching(tokens, j, '{', '}') {
                spans.push((attr_line, tokens[end].line));
                i = end + 1;
                continue;
            }
        }
        let end_line = tokens.get(j).map_or(u32::MAX, |t| t.line);
        spans.push((attr_line, end_line));
        i = j + 1;
    }
    spans
}

/// Line spans of `mod <name> { ... }` blocks.
fn mod_spans(tokens: &[Token], name: &str) -> Spans {
    let mut spans = Vec::new();
    for i in 0..tokens.len() {
        if is_ident(&tokens[i], "mod")
            && tokens.get(i + 1).is_some_and(|t| is_ident(t, name))
            && tokens.get(i + 2).is_some_and(|t| is_punct(t, '{'))
        {
            if let Some(end) = matching(tokens, i + 2, '{', '}') {
                spans.push((tokens[i].line, tokens[end].line));
            }
        }
    }
    spans
}

/// Groups contiguous comments and returns, for each comment index, the
/// last line of its contiguous block (a run of comments on consecutive
/// lines acts as one annotation/SAFETY unit).
fn comment_block_ends(comments: &[Comment]) -> Vec<u32> {
    let mut ends = vec![0u32; comments.len()];
    let mut i = 0;
    while i < comments.len() {
        let mut j = i;
        while j + 1 < comments.len() && comments[j + 1].line <= comments[j].end_line + 1 {
            j += 1;
        }
        let block_end = comments[j].end_line;
        for e in ends.iter_mut().take(j + 1).skip(i) {
            *e = block_end;
        }
        i = j + 1;
    }
    ends
}

/// Parses `klinq-lint:` annotations out of the comments. Malformed ones
/// (bad grammar, unknown rule, missing reason) become findings.
fn parse_allows(comments: &[Comment], findings: &mut Vec<Finding>) -> Vec<Allow> {
    let ends = comment_block_ends(comments);
    let mut allows = Vec::new();
    for (idx, c) in comments.iter().enumerate() {
        let Some(rest) = c.text.trim().strip_prefix("klinq-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let bad = |findings: &mut Vec<Finding>, msg: String| {
            findings.push(Finding {
                file: String::new(),
                line: c.line,
                rule: ANNOTATION_RULE,
                message: msg,
            });
        };
        let Some(args) = rest.strip_prefix("allow(") else {
            bad(
                findings,
                format!("malformed annotation `klinq-lint: {rest}` — expected `allow(<rule>) <reason>`"),
            );
            continue;
        };
        let Some(close) = args.find(')') else {
            bad(findings, "unterminated `allow(` in klinq-lint annotation".to_string());
            continue;
        };
        let rule = args[..close].trim();
        let reason = args[close + 1..].trim();
        if !RULES.contains(&rule) {
            bad(
                findings,
                format!("unknown rule `{rule}` in klinq-lint annotation (rules: {})", RULES.join(", ")),
            );
            continue;
        }
        if reason.is_empty() {
            bad(
                findings,
                format!("`allow({rule})` without a reason — the reason text is mandatory"),
            );
            continue;
        }
        allows.push(Allow {
            rule: rule.to_string(),
            from: c.line,
            to: ends[idx].saturating_add(1),
        });
    }
    allows
}

/// True when a contiguous comment block containing `SAFETY:` ends on
/// the line directly above `line` (or sits on `line` itself).
fn has_safety_comment(comments: &[Comment], ends: &[u32], line: u32) -> bool {
    comments.iter().enumerate().any(|(i, c)| {
        let block_end = ends[i];
        (block_end + 1 == line || c.line == line) && c.text.contains("SAFETY:")
    })
}

const INT_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

struct FileInfo<'a> {
    path: &'a str,
    lexed: &'a Lexed,
    tests: Spans,
    comment_ends: Vec<u32>,
}

impl FileInfo<'_> {
    fn emit(&self, out: &mut Vec<Finding>, rule: &'static str, line: u32, message: String) {
        out.push(Finding {
            file: self.path.to_string(),
            line,
            rule,
            message,
        });
    }
}

/// Files the serving path runs: the serving crate, plus the shot block
/// its wire decoder fills from frame bytes on the reactor thread.
fn no_panic_scope(path: &str) -> bool {
    path.starts_with("crates/klinq-serve/src/") || path == "crates/klinq-core/src/block.rs"
}

/// Rule `no-panic-serve`: the client-visible serving path must answer
/// with typed errors, not panics. Applies to [`no_panic_scope`] outside
/// `#[cfg(test)]` items.
fn rule_no_panic_serve(ctx: &FileInfo<'_>, out: &mut Vec<Finding>) {
    if !no_panic_scope(ctx.path) {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || in_spans(&ctx.tests, t.line) {
            continue;
        }
        let prev_dot = i > 0 && is_punct(&toks[i - 1], '.');
        let next_paren = toks.get(i + 1).is_some_and(|n| is_punct(n, '('));
        let next_bang = toks.get(i + 1).is_some_and(|n| is_punct(n, '!'));
        match t.text.as_str() {
            "unwrap" | "expect" if prev_dot && next_paren => {
                let line = t.line;
                let what = t.text.clone();
                ctx.emit(
                    out,
                    "no-panic-serve",
                    line,
                    format!(
                    "`.{what}()` on the serve path — return a typed ServeError, or annotate \
                    a deliberate liveness invariant with `klinq-lint: allow(no-panic-serve) <reason>`"
                    ),
                );
            }
            "panic" | "unreachable" | "todo" | "unimplemented" if next_bang => {
                let line = t.line;
                let what = t.text.clone();
                ctx.emit(
                    out,
                    "no-panic-serve",
                    line,
                    format!("`{what}!` on the serve path — a panic here drops client requests"),
                );
            }
            "assert" | "assert_eq" | "assert_ne" if next_bang => {
                let Some(open) = toks.get(i + 2).filter(|t| is_punct(t, '(')) else {
                    continue;
                };
                let _ = open;
                let Some(close) = matching(toks, i + 2, '(', ')') else {
                    continue;
                };
                if toks[i + 3..close].iter().any(|t| is_punct(t, '[')) {
                    let line = t.line;
                    let what = t.text.clone();
                    ctx.emit(
                        out,
                        "no-panic-serve",
                        line,
                        format!(
                        "indexing-adjacent `{what}!` on the serve path — a failed assert \
                        panics the collector; use a typed error path"
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

/// Rule `unsafe-confinement`: `unsafe` lives only in the allowlist,
/// always under a `// SAFETY:` comment; crate roots carry the matching
/// hygiene attribute.
fn rule_unsafe_confinement(ctx: &FileInfo<'_>, out: &mut Vec<Finding>) {
    let allowlisted = UNSAFE_ALLOWLIST
        .iter()
        .any(|p| ctx.path.starts_with(p) || ctx.path == p.trim_end_matches('/'));
    let toks = &ctx.lexed.tokens;
    for tok in toks {
        if !is_ident(tok, "unsafe") {
            continue;
        }
        let line = tok.line;
        if !allowlisted {
            ctx.emit(
                out,
                "unsafe-confinement",
                line,
                "`unsafe` outside the allowlist (vendor/epoll, klinq_fixed::q16) — \
                extend the allowlist deliberately or find a safe formulation"
                .to_string(),
            );
        } else if !has_safety_comment(&ctx.lexed.comments, &ctx.comment_ends, line) {
            ctx.emit(
                out,
                "unsafe-confinement",
                line,
                "`unsafe` without a `// SAFETY:` comment immediately above it".to_string(),
            );
        }
    }
    // Crate-root hygiene attribute.
    let policy = if UNSAFE_CRATE_ROOTS.contains(&ctx.path) {
        Some(("deny", "unsafe_op_in_unsafe_fn"))
    } else if is_first_party_crate_root(ctx.path) {
        Some(("forbid", "unsafe_code"))
    } else {
        None
    };
    if let Some((level, lint)) = policy {
        if !has_inner_attr(toks, level, lint) {
            ctx.emit(
                out,
                "unsafe-confinement",
                1,
                format!("crate root is missing `#![{level}({lint})]`"),
            );
        }
    }
}

/// Whether `path` is a first-party crate root that must forbid unsafe.
fn is_first_party_crate_root(path: &str) -> bool {
    if path == "src/lib.rs" {
        return true;
    }
    for prefix in ["crates/", "tools/"] {
        if let Some(rest) = path.strip_prefix(prefix) {
            if let Some((_, tail)) = rest.split_once('/') {
                if tail == "src/lib.rs" {
                    return true;
                }
            }
        }
    }
    false
}

/// Looks for the inner attribute `#![level(lint)]`.
fn has_inner_attr(tokens: &[Token], level: &str, lint: &str) -> bool {
    tokens.windows(6).any(|w| {
        is_punct(&w[0], '#')
            && is_punct(&w[1], '!')
            && is_punct(&w[2], '[')
            && is_ident(&w[3], level)
            && is_punct(&w[4], '(')
            && is_ident(&w[5], lint)
    })
}

/// Rule `stat-floor-locality`: fidelity/accuracy thresholds belong in
/// `klinq_core::stat_floors` (raise-shots-never-loosen-floors policy).
/// Fires on a float literal in (0, 1) that shares a line with a
/// fidelity/accuracy identifier and either a comparison operator or a
/// `const` declaration, outside the `stat_floors` module itself.
fn rule_stat_floor_locality(ctx: &FileInfo<'_>, out: &mut Vec<Finding>) {
    let floors = mod_spans(&ctx.lexed.tokens, "stat_floors");
    let toks = &ctx.lexed.tokens;
    let mut hits: Vec<(u32, String)> = Vec::new();
    for t in toks {
        if t.kind != TokKind::Float || in_spans(&floors, t.line) {
            continue;
        }
        let Ok(v) = t
            .text
            .trim_end_matches("f32")
            .trim_end_matches("f64")
            .trim_end_matches('_')
            .replace('_', "")
            .parse::<f64>()
        else {
            continue;
        };
        // Floors in this workspace are above-chance fidelity thresholds;
        // tiny literals are numeric tolerances (epsilon bands, drift
        // margins), which the policy does not centralise.
        if !(0.05..1.0).contains(&v) {
            continue;
        }
        let line_toks = |l: u32| toks.iter().filter(move |t| t.line == l);
        // `(a - b).abs() < eps` is a tolerance comparison, not a floor.
        if line_toks(t.line).any(|t| is_ident(t, "abs")) {
            continue;
        }
        let named = line_toks(t.line)
            .chain(line_toks(t.line.saturating_sub(1)))
            .any(|t| {
                t.kind == TokKind::Ident && {
                    let low = t.text.to_ascii_lowercase();
                    low.contains("fidelity") || low.contains("accuracy")
                }
            });
        let thresholdish = line_toks(t.line)
            .any(|t| t.kind == TokKind::Punct && matches!(t.text.as_str(), "<" | ">"))
            || line_toks(t.line).any(|t| is_ident(t, "const"));
        if named && thresholdish {
            hits.push((t.line, t.text.clone()));
        }
    }
    for (line, text) in hits {
        ctx.emit(
            out,
            "stat-floor-locality",
            line,
            format!(
            "fidelity/accuracy threshold literal `{text}` outside klinq_core::stat_floors — \
            floors live there under the raise-shots-never-loosen-floors policy"
            ),
        );
    }
}

/// Modules that must stay free of ambient nondeterminism: the wire
/// codec (frames must encode identically), the shot block and the batch
/// engine (served must equal direct, bitwise), fixed-point and DSP
/// kernels and the Q16.16 datapath built on them (bitwise-equivalence
/// oracles: each batched lane must equal the per-shot inference),
/// persist encode/decode (load-then-predict must equal
/// train-then-predict), and the simulator plus the system that
/// regenerates a loaded system's datasets from its config's seeds on
/// first access (load-then-evaluate must equal train-then-evaluate).
fn determinism_scope(path: &str) -> bool {
    path == "crates/klinq-serve/src/wire/codec.rs"
        || path == "crates/klinq-core/src/block.rs"
        || path == "crates/klinq-core/src/batch.rs"
        || path.starts_with("crates/klinq-fixed/src/")
        || path.starts_with("crates/klinq-dsp/src/")
        || path == "crates/klinq-fpga/src/engine.rs"
        || path == "crates/klinq-fpga/src/quant.rs"
        || path == "crates/klinq-core/src/persist.rs"
        || path.starts_with("crates/klinq-sim/src/")
        || path == "crates/klinq-core/src/discriminator.rs"
}

/// Rule `determinism`: no wall-clock or entropy taps in deterministic
/// modules (outside `#[cfg(test)]`).
fn rule_determinism(ctx: &FileInfo<'_>, out: &mut Vec<Finding>) {
    if !determinism_scope(ctx.path) {
        return;
    }
    let toks = &ctx.lexed.tokens;
    let mut hits: Vec<(u32, String)> = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || in_spans(&ctx.tests, t.line) {
            continue;
        }
        let path_call = |name: &str| {
            (t.text == "Instant" || t.text == "SystemTime")
                && toks.get(i + 1).is_some_and(|t| is_punct(t, ':'))
                && toks.get(i + 2).is_some_and(|t| is_punct(t, ':'))
                && toks.get(i + 3).is_some_and(|t| is_ident(t, name))
        };
        if path_call("now") {
            hits.push((t.line, format!("{}::now", t.text)));
        } else if (t.text == "thread_rng" || t.text == "from_entropy")
            && toks.get(i + 1).is_some_and(|t| is_punct(t, '('))
        {
            hits.push((t.line, format!("{}()", t.text)));
        } else if t.text == "random"
            && i >= 3
            && is_ident(&toks[i - 3], "rand")
            && is_punct(&toks[i - 2], ':')
            && is_punct(&toks[i - 1], ':')
        {
            hits.push((t.line, "rand::random".to_string()));
        }
    }
    for (line, what) in hits {
        ctx.emit(
            out,
            "determinism",
            line,
            format!(
            "ambient nondeterminism `{what}` in a deterministic module (wire codec / shot \
            block / batch engine / fixed-point / DSP kernels / persist / simulator / \
            system) — thread explicit seeds or timestamps in"
            ),
        );
    }
}

/// Rule `lossy-cast`: `as_f64(...)`-derived values narrowed with
/// `as <int>` silently truncate and wrap — the exact benchdiff PoolSize
/// bug from PR 5. Applies workspace-wide, tests included.
fn rule_lossy_cast(ctx: &FileInfo<'_>, out: &mut Vec<Finding>) {
    let toks = &ctx.lexed.tokens;
    let mut hits: Vec<(u32, String, String)> = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || (t.text != "as_f64" && t.text != "as_f32") {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|t| is_punct(t, '(')) {
            continue;
        }
        let Some(close) = matching(toks, i + 1, '(', ')') else {
            continue;
        };
        // Walk the rest of the expression: `?` and chained method calls
        // keep the value float-typed (`.unwrap_or(0.0)`, `.expect(..)`).
        let mut k = close + 1;
        loop {
            if toks.get(k).is_some_and(|t| is_punct(t, '?')) {
                k += 1;
                continue;
            }
            if toks.get(k).is_some_and(|t| is_punct(t, '.'))
                && toks.get(k + 1).is_some_and(|t| t.kind == TokKind::Ident)
                && toks.get(k + 2).is_some_and(|t| is_punct(t, '('))
            {
                match matching(toks, k + 2, '(', ')') {
                    Some(c) => {
                        k = c + 1;
                        continue;
                    }
                    None => break,
                }
            }
            break;
        }
        if toks.get(k).is_some_and(|t| is_ident(t, "as")) {
            if let Some(ty) = toks.get(k + 1) {
                if ty.kind == TokKind::Ident && INT_TYPES.contains(&ty.text.as_str()) {
                    hits.push((t.line, t.text.clone(), ty.text.clone()));
                }
            }
        }
    }
    for (line, src, ty) in hits {
        ctx.emit(
            out,
            "lossy-cast",
            line,
            format!(
            "`{src}(..) as {ty}` silently truncates/wraps — parse integers with `as_u64()` \
            or use a checked conversion (the benchdiff PoolSize bug class)"
            ),
        );
    }
}

/// Lints one file's source. `path` must be repo-relative with forward
/// slashes — rules are scoped by path (e.g. `no-panic-serve` only fires
/// on the serving path, `crates/klinq-serve/src/` and the shot block).
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let path = path.replace('\\', "/");
    let lexed = lex(src);
    let tests = test_spans(&lexed.tokens);
    let comment_ends = comment_block_ends(&lexed.comments);
    let mut annotation_findings = Vec::new();
    let allows = parse_allows(&lexed.comments, &mut annotation_findings);
    for f in &mut annotation_findings {
        f.file = path.clone();
    }

    let ctx = FileInfo {
        path: &path,
        lexed: &lexed,
        tests,
        comment_ends,
    };
    let mut raw = Vec::new();
    rule_no_panic_serve(&ctx, &mut raw);
    rule_unsafe_confinement(&ctx, &mut raw);
    rule_stat_floor_locality(&ctx, &mut raw);
    rule_determinism(&ctx, &mut raw);
    rule_lossy_cast(&ctx, &mut raw);

    let mut findings: Vec<Finding> = raw
        .into_iter()
        .filter(|f| {
            !allows
                .iter()
                .any(|a| a.rule == f.rule && a.from <= f.line && f.line <= a.to)
        })
        .collect();
    findings.append(&mut annotation_findings);
    findings.sort();
    findings
}

/// The directories the workspace walk scans. Everything else —
/// `vendor/` work-alikes standing in for registry crates, `target/`,
/// fixture corpora — is out of policy scope. `vendor/epoll` is the one
/// vendored crate that is genuinely first-party systems code (the
/// reactor's syscall bindings), so it is scanned.
pub const SCAN_ROOTS: [&str; 6] = ["src", "crates", "tools", "tests", "examples", "vendor/epoll"];

/// Collects the repo-relative paths of every first-party `.rs` file
/// under `root`, sorted, skipping `target/` and `fixtures/` dirs.
///
/// # Errors
///
/// Propagates directory-walk I/O errors with the offending path.
pub fn workspace_files(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    if !root.is_dir() {
        return Err(format!("{}: not a directory", root.display()));
    }
    let mut out = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            walk(&dir, &mut out)?;
        }
    }
    let mut rel: Vec<(String, PathBuf)> = out
        .into_iter()
        .filter_map(|p| {
            let r = p.strip_prefix(root).ok()?.to_string_lossy().replace('\\', "/");
            Some((r, p))
        })
        .collect();
    rel.sort();
    Ok(rel)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" || name == "fixtures" {
                continue;
            }
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every first-party file under `root`.
///
/// # Errors
///
/// Propagates walk/read I/O errors.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    for (rel, path) in workspace_files(root)? {
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let src = String::from_utf8_lossy(&bytes);
        findings.extend(lint_source(&rel, &src));
    }
    findings.sort();
    Ok(findings)
}

/// A per-rule baseline: previously-accepted findings that do not fail
/// the build (so the gate can land before a cleanup finishes). Entries
/// match on (rule, file, message) — not line, so unrelated edits moving
/// a baselined site do not resurrect it.
#[derive(Debug, Default)]
pub struct BaselineFile {
    entries: Vec<(String, String, String)>,
}

impl BaselineFile {
    /// Parses the baseline JSON (`{"version":1,"entries":[{rule,file,message}]}`).
    ///
    /// # Errors
    ///
    /// Malformed JSON or a missing/duplicate field.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("baseline: {e}"))?;
        let entries = v
            .get("entries")
            .and_then(Value::as_array)
            .ok_or("baseline: missing `entries` array")?;
        let mut out = Vec::new();
        for e in entries {
            let field = |k: &str| -> Result<String, String> {
                Ok(e.get(k)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("baseline entry missing `{k}`"))?
                    .to_string())
            };
            out.push((field("rule")?, field("file")?, field("message")?));
        }
        Ok(BaselineFile { entries: out })
    }

    /// Whether `f` is baselined.
    pub fn covers(&self, f: &Finding) -> bool {
        self.entries
            .iter()
            .any(|(r, fi, m)| r == f.rule && fi == &f.file && m == &f.message)
    }

    /// Splits findings into (active, baselined-count).
    pub fn apply(&self, findings: Vec<Finding>) -> (Vec<Finding>, usize) {
        let total = findings.len();
        let active: Vec<Finding> = findings.into_iter().filter(|f| !self.covers(f)).collect();
        let baselined = total - active.len();
        (active, baselined)
    }

    /// Renders `findings` as baseline JSON (for `--write-baseline`).
    pub fn render(findings: &[Finding]) -> String {
        let entries: Vec<Value> = findings
            .iter()
            .map(|f| {
                Value::Object(vec![
                    ("rule".to_string(), Value::Str(f.rule.to_string())),
                    ("file".to_string(), Value::Str(f.file.clone())),
                    ("message".to_string(), Value::Str(f.message.clone())),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("version".to_string(), Value::UInt(1)),
            ("entries".to_string(), Value::Array(entries)),
        ]);
        serde_json::to_string_pretty(&doc).unwrap_or_else(|_| "{}".to_string())
    }
}

/// Machine-readable report (`--json`): stable field order, findings
/// sorted by (file, line, rule).
pub fn findings_to_json(findings: &[Finding], baselined: usize) -> String {
    let items: Vec<Value> = findings
        .iter()
        .map(|f| {
            Value::Object(vec![
                ("rule".to_string(), Value::Str(f.rule.to_string())),
                ("file".to_string(), Value::Str(f.file.clone())),
                ("line".to_string(), Value::UInt(u64::from(f.line))),
                ("message".to_string(), Value::Str(f.message.clone())),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("version".to_string(), Value::UInt(1)),
        ("findings".to_string(), Value::Array(items)),
        ("baselined".to_string(), Value::UInt(baselined as u64)),
    ]);
    serde_json::to_string_pretty(&doc).unwrap_or_else(|_| "{}".to_string())
}
