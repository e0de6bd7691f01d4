//! The determinism rules and the per-file rule engine.
//!
//! Every rule is a conservative scanner over the token stream produced by
//! [`crate::lexer`]. Rules are *named*; a finding can be suppressed only by
//! a directive line comment immediately above the offending line:
//!
//! ```text
//! (slash-slash) bcc-lint: allow(rule-name, reason = "why this site is sound")
//! ```
//!
//! The reason is mandatory — an allow without one is itself reported (as
//! `invalid-allow`), and an allow that suppresses nothing is reported (as
//! `unused-allow`), so suppressions cannot rot silently.

use crate::lexer::{lex, Token, TokenKind};

/// The crates whose results must be bitwise reproducible. Sources of
/// iteration-order or scheduling nondeterminism are banned here outright.
const DETERMINISTIC_CRATES: &[&str] = &[
    "congest", "core", "f2", "graphs", "lab", "planted", "prg", "stats",
];

/// Identity and documentation of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The rule name used in reports and allow directives.
    pub name: &'static str,
    /// One-line description for `--list-rules` and the JSON report.
    pub summary: &'static str,
}

/// All determinism rules, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "no-unsafe",
        summary: "no unsafe code and no allow(unsafe_code) anywhere; every crate root must carry #![forbid(unsafe_code)]",
    },
    RuleInfo {
        name: "no-unordered-iteration",
        summary: "HashMap/HashSet (nondeterministic iteration order) banned in the deterministic crates; use BTreeMap/BTreeSet or sorted vecs",
    },
    RuleInfo {
        name: "no-wall-clock-in-work-paths",
        summary: "Instant/SystemTime only in bcc-obs wall metrics and bench/example timing code",
    },
    RuleInfo {
        name: "no-global-mutable-state",
        summary: "static mut is banned everywhere; interior-mutable statics (Atomic*/Mutex/RwLock/Cell/RefCell/UnsafeCell) only in bcc-obs",
    },
    RuleInfo {
        name: "no-stray-printing",
        summary: "println!/eprintln! (and friends) banned in library code; binaries, tests, benches, examples and the bench-table crate are exempt",
    },
    RuleInfo {
        name: "rayon-order-audit",
        summary: "par_bridge, and for_each/reduce on parallel iterators, flagged in the deterministic crates unless the allow names the order-restoring mechanism",
    },
];

/// Meta-rule name for unparseable or reason-less allow directives.
pub const RULE_INVALID_ALLOW: &str = "invalid-allow";
/// Meta-rule name for allow directives that suppressed nothing.
pub const RULE_UNUSED_ALLOW: &str = "unused-allow";

/// One lint finding, anchored to a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (or a meta-rule name).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation of this specific occurrence.
    pub message: String,
}

/// How a file participates in the build, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source under `src/` (ships in every downstream build).
    LibSrc,
    /// `src/main.rs` or `src/bin/*` — a binary entry point.
    Bin,
    /// An integration test under `tests/`.
    Test,
    /// A bench target under `benches/`.
    Bench,
    /// An example under `examples/`.
    Example,
}

/// A parsed `bcc-lint: allow(...)` directive.
#[derive(Debug)]
struct Allow {
    line: u32,
    rule: String,
    valid: bool,
    used: bool,
}

/// Everything the rules need to know about one file.
pub struct FileContext {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// The owning crate's short name (`f2`, `core`, ..., or `bcc` for the
    /// root facade package).
    pub crate_name: String,
    /// The file's build role.
    pub kind: FileKind,
    /// Whether this file is a crate root (`src/lib.rs`).
    pub is_crate_root: bool,
    tokens: Vec<Token>,
    allows: Vec<Allow>,
    /// Token-index ranges covered by `#[cfg(test)]` items.
    test_regions: Vec<(usize, usize)>,
}

/// Classifies `rel` (workspace-relative, `/`-separated) into crate name,
/// file kind and crate-root-ness.
pub fn classify(rel: &str) -> (String, FileKind, bool) {
    let (crate_name, tail) = match rel.strip_prefix("crates/") {
        Some(rest) => match rest.split_once('/') {
            Some((name, tail)) => (name.to_string(), tail),
            None => ("bcc".to_string(), rel),
        },
        None => ("bcc".to_string(), rel),
    };
    let kind = if tail.starts_with("tests/") {
        FileKind::Test
    } else if tail.starts_with("benches/") {
        FileKind::Bench
    } else if tail.starts_with("examples/") {
        FileKind::Example
    } else if tail == "src/main.rs" || tail.starts_with("src/bin/") || tail == "build.rs" {
        FileKind::Bin
    } else {
        FileKind::LibSrc
    };
    (crate_name, kind, tail == "src/lib.rs")
}

impl FileContext {
    /// Lexes `source` and prepares the rule-engine view of the file.
    pub fn new(rel: &str, source: &str) -> FileContext {
        let (crate_name, kind, is_crate_root) = classify(rel);
        let lexed = lex(source);
        let allows = parse_allows(&lexed.comments);
        let test_regions = find_test_regions(&lexed.tokens);
        FileContext {
            rel: rel.to_string(),
            crate_name,
            kind,
            is_crate_root,
            tokens: lexed.tokens,
            allows,
            test_regions,
        }
    }

    fn in_test_region(&self, tok_idx: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| tok_idx >= a && tok_idx <= b)
    }

    fn finding(&self, rule: &'static str, tok: &Token, message: String) -> Finding {
        Finding {
            rule,
            path: self.rel.clone(),
            line: tok.line,
            col: tok.col,
            message,
        }
    }
}

/// Parses suppression directives out of the collected line comments.
///
/// A directive must be the start of the comment's text (after the slashes):
/// `bcc-lint: allow(rule-name, reason = "...")`. Anything that starts with
/// `bcc-lint:` but does not parse — or omits the reason — is kept as an
/// *invalid* directive so the engine can report it.
fn parse_allows(comments: &[crate::lexer::LineComment]) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        let body = c.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("bcc-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let parsed = (|| {
            let inner = rest.strip_prefix("allow(")?.strip_suffix(')')?;
            let (rule, tail) = inner.split_once(',')?;
            let reason = tail
                .trim()
                .strip_prefix("reason")?
                .trim_start()
                .strip_prefix('=')?;
            let reason = reason.trim();
            if reason.len() < 2 || !reason.starts_with('"') || !reason.ends_with('"') {
                return None;
            }
            if reason.len() <= 2 {
                return None; // empty reason
            }
            Some(rule.trim().to_string())
        })();
        match parsed {
            Some(rule) => out.push(Allow {
                line: c.line,
                rule,
                valid: true,
                used: false,
            }),
            None => out.push(Allow {
                line: c.line,
                rule: String::new(),
                valid: false,
                used: false,
            }),
        }
    }
    out
}

/// Finds token ranges belonging to `#[cfg(test)]` items (`mod tests { … }`,
/// or a single `fn`/`impl`). The attribute sequence is matched exactly;
/// the item body is the brace-balanced region after it (or up to the next
/// `;` for brace-less items).
fn find_test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 6 < tokens.len() {
        let is_attr = tokens[i].text == "#"
            && tokens[i + 1].text == "["
            && tokens[i + 2].text == "cfg"
            && tokens[i + 3].text == "("
            && tokens[i + 4].text == "test"
            && tokens[i + 5].text == ")"
            && tokens[i + 6].text == "]";
        if !is_attr {
            i += 1;
            continue;
        }
        // Scan forward to the item body: the first `{` starts it, a `;`
        // before any `{` ends a brace-less item. Nested attribute brackets
        // on the way are skipped by brace-agnostic scanning.
        let mut j = i + 7;
        let mut depth = 0usize;
        let mut end = None;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end = Some(j);
                        break;
                    }
                }
                ";" if depth == 0 => {
                    end = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let end = end.unwrap_or(tokens.len() - 1);
        regions.push((i, end));
        i = end + 1;
    }
    regions
}

/// Runs every rule over one prepared file and applies suppression.
pub fn check_file(ctx: &mut FileContext) -> Vec<Finding> {
    let mut raw = Vec::new();
    rule_unsafe(ctx, &mut raw);
    rule_unordered(ctx, &mut raw);
    rule_wall_clock(ctx, &mut raw);
    rule_global_state(ctx, &mut raw);
    rule_printing(ctx, &mut raw);
    rule_rayon(ctx, &mut raw);

    // Suppression: a valid allow on line L silences findings of its rule
    // on line L+1 (and only there).
    let mut kept = Vec::new();
    for f in raw {
        let mut suppressed = false;
        for a in ctx.allows.iter_mut() {
            if a.valid && a.line + 1 == f.line && a.rule == f.rule {
                a.used = true;
                suppressed = true;
            }
        }
        if !suppressed {
            kept.push(f);
        }
    }
    // Meta-findings keep the directive set honest.
    for a in &ctx.allows {
        if !a.valid {
            kept.push(Finding {
                rule: RULE_INVALID_ALLOW,
                path: ctx.rel.clone(),
                line: a.line,
                col: 1,
                message: "malformed bcc-lint directive: expected allow(rule-name, reason = \"...\") with a non-empty reason".into(),
            });
        } else if !a.used {
            kept.push(Finding {
                rule: RULE_UNUSED_ALLOW,
                path: ctx.rel.clone(),
                line: a.line,
                col: 1,
                message: format!(
                    "allow({}) suppresses nothing on the next line; delete it",
                    a.rule
                ),
            });
        }
    }
    kept.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    kept
}

fn idents(ctx: &FileContext) -> impl Iterator<Item = (usize, &Token)> {
    ctx.tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind == TokenKind::Ident)
}

/// `no-unsafe`.
fn rule_unsafe(ctx: &FileContext, out: &mut Vec<Finding>) {
    const RULE: &str = "no-unsafe";
    for (i, t) in idents(ctx) {
        if t.text == "unsafe" {
            out.push(ctx.finding(RULE, t, "`unsafe` code".to_string()));
        }
        // A scoped allow(unsafe_code) re-opens the door the crate roots
        // close.
        if t.text == "allow" && attr_args_contain(ctx, i, "unsafe_code") {
            out.push(ctx.finding(RULE, t, "allow(unsafe_code)".to_string()));
        }
    }
    if ctx.is_crate_root && !crate_root_forbids_unsafe(ctx) {
        let anchor = Token {
            kind: TokenKind::Punct,
            text: String::new(),
            line: 1,
            col: 1,
        };
        out.push(ctx.finding(
            RULE,
            &anchor,
            "crate root missing #![forbid(unsafe_code)]".to_string(),
        ));
    }
}

/// Whether the attribute argument list opening right after ident `i`
/// (`allow`, `forbid`, ...) contains the given ident.
fn attr_args_contain(ctx: &FileContext, i: usize, needle: &str) -> bool {
    let toks = &ctx.tokens;
    if toks.get(i + 1).map(|t| t.text.as_str()) != Some("(") {
        return false;
    }
    let mut depth = 0usize;
    for t in &toks[i + 1..] {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            _ if t.kind == TokenKind::Ident && t.text == needle => return true,
            _ => {}
        }
    }
    false
}

/// Whether the crate root carries the inner attribute
/// `#![forbid(unsafe_code)]`.
fn crate_root_forbids_unsafe(ctx: &FileContext) -> bool {
    let toks = &ctx.tokens;
    (0..toks.len().saturating_sub(3)).any(|i| {
        toks[i].text == "#"
            && toks[i + 1].text == "!"
            && toks[i + 2].text == "["
            && toks[i + 3].text == "forbid"
            && attr_args_contain(ctx, i + 3, "unsafe_code")
    })
}

/// `no-unordered-iteration`.
fn rule_unordered(ctx: &FileContext, out: &mut Vec<Finding>) {
    const RULE: &str = "no-unordered-iteration";
    if !DETERMINISTIC_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    for (_, t) in idents(ctx) {
        if matches!(
            t.text.as_str(),
            "HashMap" | "HashSet" | "hash_map" | "hash_set"
        ) {
            out.push(ctx.finding(
                RULE,
                t,
                format!(
                    "`{}` iterates in nondeterministic order; use the BTree equivalent or a sorted vec",
                    t.text
                ),
            ));
        }
    }
}

/// `no-wall-clock-in-work-paths`.
fn rule_wall_clock(ctx: &FileContext, out: &mut Vec<Finding>) {
    const RULE: &str = "no-wall-clock-in-work-paths";
    // bcc-obs owns wall metrics; the bench crate and bench/example targets
    // are timing code by definition.
    if ctx.crate_name == "obs"
        || ctx.crate_name == "bench"
        || matches!(ctx.kind, FileKind::Bench | FileKind::Example)
    {
        return;
    }
    for (_, t) in idents(ctx) {
        if t.text == "Instant" || t.text == "SystemTime" {
            out.push(ctx.finding(
                RULE,
                t,
                format!(
                    "`{}` in a work path; route timing through bcc-obs spans or allowlist this site",
                    t.text
                ),
            ));
        }
    }
}

/// `no-global-mutable-state`.
fn rule_global_state(ctx: &FileContext, out: &mut Vec<Finding>) {
    const RULE: &str = "no-global-mutable-state";
    let toks = &ctx.tokens;
    for (i, t) in idents(ctx) {
        if t.text != "static" {
            continue;
        }
        if toks.get(i + 1).map(|n| n.text.as_str()) == Some("mut") {
            out.push(ctx.finding(
                RULE,
                t,
                "`static mut` is unsynchronized global state; use an obs metric or pass state down".into(),
            ));
            continue;
        }
        if ctx.crate_name == "obs" {
            continue;
        }
        // `static NAME: <type> = …;` — scan the type region for
        // interior-mutability containers. Write-once cells (OnceLock,
        // Once, LazyLock) are initialization, not mutation, and pass.
        let mut j = i + 1;
        while j < toks.len() && toks[j].text != ":" {
            if toks[j].text == ";" || toks[j].text == "=" {
                break;
            }
            j += 1;
        }
        if toks.get(j).map(|t| t.text.as_str()) != Some(":") {
            continue;
        }
        while j < toks.len() && toks[j].text != "=" && toks[j].text != ";" {
            let ty = &toks[j];
            let hot = ty.kind == TokenKind::Ident
                && (ty.text.starts_with("Atomic")
                    || matches!(
                        ty.text.as_str(),
                        "Mutex" | "RwLock" | "RefCell" | "Cell" | "UnsafeCell"
                    ));
            if hot {
                out.push(ctx.finding(
                    RULE,
                    ty,
                    format!(
                        "process-wide mutable static of type `{}` outside bcc-obs",
                        ty.text
                    ),
                ));
            }
            j += 1;
        }
    }
}

/// `no-stray-printing`.
fn rule_printing(ctx: &FileContext, out: &mut Vec<Finding>) {
    const RULE: &str = "no-stray-printing";
    // Only library sources are work paths; binaries, tests, benches and
    // examples print on purpose, and the bench crate *is* a table printer.
    if ctx.kind != FileKind::LibSrc || ctx.crate_name == "bench" {
        return;
    }
    for (i, t) in idents(ctx) {
        let is_print = matches!(
            t.text.as_str(),
            "println" | "eprintln" | "print" | "eprint" | "dbg"
        );
        if is_print
            && ctx.tokens.get(i + 1).map(|n| n.text.as_str()) == Some("!")
            && !ctx.in_test_region(i)
        {
            out.push(ctx.finding(
                RULE,
                t,
                format!(
                    "`{}!` in library code; return data or go through bcc-obs",
                    t.text
                ),
            ));
        }
    }
}

/// `rayon-order-audit`.
fn rule_rayon(ctx: &FileContext, out: &mut Vec<Finding>) {
    const RULE: &str = "rayon-order-audit";
    if !DETERMINISTIC_CRATES.contains(&ctx.crate_name.as_str()) {
        return;
    }
    const PAR_SOURCES: &[&str] = &[
        "par_iter",
        "par_iter_mut",
        "into_par_iter",
        "par_chunks",
        "par_chunks_mut",
        "par_windows",
        "par_bridge",
    ];
    // One statement at a time: a parallel-iterator source taints the
    // chain until the statement ends (`;`, or a closing `}` ending a
    // block). Within a tainted chain, order-sensitive consumers fire.
    let mut tainted = false;
    for (_, t) in self::idents_and_stops(ctx) {
        match t.kind {
            TokenKind::Punct if t.text == ";" || t.text == "}" => {
                tainted = false;
            }
            TokenKind::Punct => {}
            TokenKind::Ident => {
                if t.text == "par_bridge" {
                    out.push(ctx.finding(
                        RULE,
                        t,
                        "`par_bridge` yields items in nondeterministic order; restore order explicitly or restructure".into(),
                    ));
                }
                if PAR_SOURCES.contains(&t.text.as_str()) {
                    tainted = true;
                }
                if tainted && (t.text == "for_each" || t.text == "reduce") {
                    out.push(ctx.finding(
                        RULE,
                        t,
                        format!(
                            "`{}` on a parallel iterator runs in scheduling order; collect in index order (or name the order-restoring mechanism in an allow)",
                            t.text
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

fn idents_and_stops(ctx: &FileContext) -> impl Iterator<Item = (usize, &Token)> {
    ctx.tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| matches!(t.kind, TokenKind::Ident | TokenKind::Punct))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        let mut ctx = FileContext::new(rel, src);
        check_file(&mut ctx)
    }

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify("crates/f2/src/bitvec.rs"),
            ("f2".into(), FileKind::LibSrc, false)
        );
        assert_eq!(
            classify("crates/core/tests/alloc.rs"),
            ("core".into(), FileKind::Test, false)
        );
        assert_eq!(
            classify("src/lib.rs"),
            ("bcc".into(), FileKind::LibSrc, true)
        );
        assert_eq!(
            classify("examples/lab_sweep.rs"),
            ("bcc".into(), FileKind::Example, false)
        );
        assert_eq!(
            classify("crates/lint/src/main.rs"),
            ("lint".into(), FileKind::Bin, false)
        );
        assert_eq!(
            classify("crates/bench/benches/e01.rs"),
            ("bench".into(), FileKind::Bench, false)
        );
    }

    #[test]
    fn atomics_outside_obs_fire_but_oncelock_passes() {
        let bad = "static N: AtomicU64 = AtomicU64::new(0);";
        let fs = run("crates/core/src/x.rs", bad);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "no-global-mutable-state");

        let ok = "static K: OnceLock<Kernel> = OnceLock::new();";
        assert!(run("crates/f2/src/x.rs", ok).is_empty());

        // The same atomic inside bcc-obs is the point of that crate.
        assert!(run("crates/obs/src/x.rs", bad).is_empty());
    }

    #[test]
    fn static_lifetimes_are_not_statics() {
        let src = "fn f(x: &'static str) -> &'static str { x }";
        assert!(run("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn printing_in_test_module_is_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { println!(\"debug\"); }\n}\n";
        assert!(run("crates/core/src/x.rs", src).is_empty());
        let live = "pub fn f() { println!(\"x\"); }";
        assert_eq!(run("crates/core/src/x.rs", live).len(), 1);
    }

    #[test]
    fn banned_names_inside_strings_and_comments_do_not_fire() {
        let src = "// HashMap would be wrong here\npub fn f() -> &'static str { \"HashMap Instant unsafe\" }";
        assert!(run("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_exemptions() {
        let src = "use std::time::Instant;";
        assert_eq!(run("crates/lab/src/run.rs", src).len(), 1);
        assert!(run("crates/obs/src/lib0.rs", src).is_empty());
        assert!(run("crates/bench/src/x.rs", src).is_empty());
        assert!(run("examples/x.rs", src).is_empty());
        assert!(run("crates/lab/benches/x.rs", src).is_empty());
    }

    #[test]
    fn rayon_taint_resets_at_statement_end() {
        let fire = "fn f(xs: &[u32]) { xs.par_iter().for_each(|x| sink(x)); }";
        let fs = run("crates/core/src/x.rs", fire);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "rayon-order-audit");

        // Sequential for_each after a parallel statement ended: clean.
        let clean = "fn f(xs: &[u32]) { let v: Vec<_> = xs.par_iter().map(|x| x).collect(); v.iter().for_each(|x| sink(x)); }";
        assert!(run("crates/core/src/x.rs", clean).is_empty());

        // par_bridge fires even without a consumer.
        let bridge = "fn f(xs: &[u32]) { let it = xs.iter().par_bridge(); }";
        assert_eq!(run("crates/core/src/x.rs", bridge).len(), 1);
    }

    #[test]
    fn crate_root_attribute_contract() {
        let fs = run("crates/graphs/src/lib.rs", "pub mod x;");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("forbid"));
        assert!(run(
            "crates/graphs/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod x;"
        )
        .is_empty());
        // deny is a drift from forbid in every crate root.
        assert_eq!(
            run(
                "crates/graphs/src/lib.rs",
                "#![deny(unsafe_code)]\npub mod x;"
            )
            .len(),
            1
        );
    }

    #[test]
    fn deny_unsafe_in_the_f2_root_is_a_finding() {
        let fs = run("crates/f2/src/lib.rs", "#![deny(unsafe_code)]\npub mod x;");
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "no-unsafe");
        assert!(fs[0].message.contains("forbid(unsafe_code)"));
    }

    #[test]
    fn unsafe_in_the_f2_kernel_is_a_finding() {
        let src = "pub fn f(xs: &[u64]) -> u64 { unsafe { *xs.get_unchecked(0) } }";
        let fs = run("crates/f2/src/kernel.rs", src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "no-unsafe");
    }

    #[test]
    fn scoped_allow_unsafe_is_a_finding() {
        let src = "#![allow(unsafe_code)]\npub fn f() {}";
        for path in ["crates/core/src/word.rs", "crates/f2/src/kernel.rs"] {
            let fs = run(path, src);
            assert_eq!(fs.len(), 1, "{path}: {fs:?}");
            assert!(fs[0].message.contains("allow(unsafe_code)"));
        }
    }

    #[test]
    fn allow_directive_lifecycle() {
        // Valid + used: silent.
        let used = "// bcc-lint: allow(no-unordered-iteration, reason = \"sorted before iteration\")\nuse std::collections::HashMap;\n";
        assert!(
            run("crates/core/src/x.rs", used).is_empty(),
            "used allow must be silent"
        );
        // Valid + unused: reported.
        let unused =
            "// bcc-lint: allow(no-unordered-iteration, reason = \"nothing here\")\nfn f() {}\n";
        let fs = run("crates/core/src/x.rs", unused);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, RULE_UNUSED_ALLOW);
        // Reason-less: invalid.
        let invalid =
            "// bcc-lint: allow(no-unordered-iteration)\nuse std::collections::HashMap;\n";
        let fs = run("crates/core/src/x.rs", invalid);
        assert_eq!(fs.len(), 2, "{fs:?}"); // the finding survives + invalid-allow
        assert!(fs.iter().any(|f| f.rule == RULE_INVALID_ALLOW));
        // Wrong rule name in the allow: finding survives, allow is unused.
        let wrong = "// bcc-lint: allow(no-stray-printing, reason = \"wrong rule\")\nuse std::collections::HashMap;\n";
        let fs = run("crates/core/src/x.rs", wrong);
        assert_eq!(fs.len(), 2, "{fs:?}");
        // Allow two lines above: does not reach.
        let far = "// bcc-lint: allow(no-unordered-iteration, reason = \"too far away\")\n\nuse std::collections::HashMap;\n";
        let fs = run("crates/core/src/x.rs", far);
        assert_eq!(fs.len(), 2, "{fs:?}");
    }

    #[test]
    fn unordered_iteration_scope() {
        let src = "use std::collections::HashSet;";
        assert_eq!(run("crates/prg/src/toy.rs", src).len(), 1);
        assert_eq!(
            run("crates/core/tests/t.rs", src).len(),
            1,
            "tests in deterministic crates are covered"
        );
        assert!(run("crates/obs/src/x.rs", src).is_empty());
        assert!(run("crates/lint/src/x.rs", src).is_empty());
    }
}
