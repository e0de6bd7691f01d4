//! # bcc-lint — the workspace determinism linter
//!
//! Every guarantee this reproduction rests on — one thread == four
//! threads bitwise, obs-on == obs-off, resume == one-shot — is enforced
//! *dynamically* by differential tests that sample the behavior space.
//! The hazards behind those guarantees are visible *statically*: a
//! `HashMap` iterated in a deterministic crate, an `unsafe` block, a
//! wall-clock read in a work path. This crate makes the invariants structural instead of
//! statistical: a purpose-built lexer ([`lexer`]) feeds a rule engine
//! ([`rules`]) that walks every workspace `.rs` file and reports named
//! findings ([`report`]). A sibling pass ([`manifests`]) walks every
//! `Cargo.toml` so the build configuration — shared lint levels,
//! workspace-inherited dependencies — cannot drift either.
//!
//! The linter runs two ways:
//!
//! * as a binary — `cargo run -p bcc-lint` (add `--json target/lint.json`
//!   for the machine-readable report); nonzero exit on any finding;
//! * as a test — `crates/lint/tests/workspace_clean.rs` asserts the tree
//!   is clean, so plain `cargo test -q` fails on any new violation.
//!
//! Findings are suppressible only by a directive comment on the line
//! directly above the offending line, naming the rule and the reason:
//!
//! ```text
//! (slash-slash) bcc-lint: allow(no-wall-clock-in-work-paths, reason = "wall_ms is reporting-only")
//! ```
//!
//! Reason-less or unused directives are themselves findings, so the
//! suppression inventory cannot rot. The crate's one dependency is
//! `bcc-obs`, for the workspace JSON codec, and `bcc-obs` has none.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod manifests;
pub mod report;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

pub use manifests::{lint_manifest, workspace_dep_names, MANIFEST_RULES};
pub use report::Report;
pub use rules::{Finding, RULES};

/// Directories never scanned: build output, vendored dependency
/// stand-ins, VCS metadata.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git"];

/// The known-bad lint fixtures are the one place banned constructs live
/// on purpose; they are covered by their own tests, not the workspace
/// walk.
const FIXTURES_DIR: &str = "crates/lint/tests/fixtures";

/// Lints one in-memory source file. `rel` is the workspace-relative path
/// (with `/` separators) used for crate/role classification.
pub fn lint_source(rel: &str, source: &str) -> Vec<Finding> {
    let mut ctx = rules::FileContext::new(rel, source);
    rules::check_file(&mut ctx)
}

/// Walks `root` and lints every workspace `.rs` file and `Cargo.toml`
/// manifest (the latter against [`manifests::MANIFEST_RULES`], using the
/// root manifest's `[workspace.dependencies]` as the inheritance source).
///
/// # Panics
///
/// Panics if `root` is not a readable directory; unreadable individual
/// files are skipped (they cannot hide violations from CI, which reads
/// the same tree that gets built).
pub fn lint_workspace(root: &Path) -> Report {
    let mut files = Vec::new();
    collect_lintable_files(root, root, &mut files);
    files.sort();
    let workspace_deps = fs::read_to_string(root.join("Cargo.toml"))
        .map(|src| workspace_dep_names(&src))
        .unwrap_or_default();
    let mut findings = Vec::new();
    for rel in &files {
        let Ok(source) = fs::read_to_string(root.join(rel)) else {
            continue;
        };
        let rel = rel_to_unix(rel);
        if rel.ends_with("Cargo.toml") {
            findings.extend(lint_manifest(&rel, &source, &workspace_deps));
        } else {
            findings.extend(lint_source(&rel, &source));
        }
    }
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    Report {
        root: root.display().to_string(),
        files_scanned: files.len(),
        findings,
    }
}

fn rel_to_unix(rel: &Path) -> String {
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_lintable_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.filter_map(|e| e.ok()).collect();
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            let rel = path.strip_prefix(root).unwrap_or(&path);
            if rel_to_unix(rel) == FIXTURES_DIR {
                continue;
            }
            collect_lintable_files(root, &path, out);
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            out.push(rel.to_path_buf());
        }
    }
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_is_deterministic() {
        let src = "use std::collections::HashMap;\nuse std::collections::HashSet;\n";
        let a = lint_source("crates/core/src/x.rs", src);
        let b = lint_source("crates/core/src/x.rs", src);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert!(a[0].line < a[1].line, "findings are position-sorted");
    }

    #[test]
    fn workspace_root_is_discoverable() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root above crates/lint");
        assert!(root.join("crates").is_dir());
    }
}
