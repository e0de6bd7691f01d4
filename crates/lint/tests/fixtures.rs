//! The fixture corpus: every rule must both *fire* (exactly once, on the
//! known-bad snippet) and *be silenceable* (the same snippet under a
//! reasoned allow directive is clean). Together with the workspace
//! self-clean test this is the linter's own differential suite: a rule
//! that silently stops firing fails here, a rule that cannot be
//! suppressed fails here, and a new violation in the tree fails there.
//!
//! Source rules are exercised on `.rs` fixtures through [`lint_source`];
//! manifest rules on `.toml` fixtures through [`lint_manifest`], with a
//! synthetic `[workspace.dependencies]` name set standing in for the
//! root manifest.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use bcc_lint::{lint_manifest, lint_source, Finding, MANIFEST_RULES, RULES};

/// `(rule, synthetic workspace path the fixture is linted as)`.
///
/// The synthetic path drives crate/role classification, so each fixture
/// lives exactly where the real hazard would: library source of a
/// deterministic crate.
const FIXTURES: &[(&str, &str)] = &[
    ("no-unsafe", "crates/graphs/src/scratch.rs"),
    ("no-unordered-iteration", "crates/core/src/scratch.rs"),
    ("no-wall-clock-in-work-paths", "crates/lab/src/scratch.rs"),
    ("no-global-mutable-state", "crates/core/src/scratch.rs"),
    ("no-stray-printing", "crates/prg/src/scratch.rs"),
    ("rayon-order-audit", "crates/core/src/scratch.rs"),
];

/// Manifest-rule fixture pairs, linted as a member manifest path.
const MANIFEST_FIXTURES: &[(&str, &str)] = &[
    ("manifest-workspace-lints", "crates/scratch/Cargo.toml"),
    ("manifest-dependency-drift", "crates/scratch/Cargo.toml"),
];

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn lint_fixture(stem: &str, variant: &str, as_path: &str) -> Vec<Finding> {
    lint_source(as_path, &fixture(&format!("{stem}_{variant}.rs")))
}

/// The dependency names the manifest fixtures are allowed to inherit —
/// stands in for the real root `[workspace.dependencies]` table.
fn fixture_workspace_deps() -> BTreeSet<String> {
    ["rand"].into_iter().map(str::to_string).collect()
}

fn lint_manifest_fixture(stem: &str, variant: &str, as_path: &str) -> Vec<Finding> {
    lint_manifest(
        as_path,
        &fixture(&format!("{stem}_{variant}.toml")),
        &fixture_workspace_deps(),
    )
}

#[test]
fn every_rule_fires_exactly_once_on_its_bad_fixture() {
    for (rule, as_path) in FIXTURES {
        let findings = lint_fixture(rule, "bad", as_path);
        assert_eq!(
            findings.len(),
            1,
            "{rule}: bad fixture must produce exactly one finding, got {findings:?}"
        );
        assert_eq!(findings[0].rule, *rule, "{rule}: wrong rule fired");
    }
}

#[test]
fn every_rule_is_silenced_by_a_reasoned_allow() {
    for (rule, as_path) in FIXTURES {
        let findings = lint_fixture(rule, "allowed", as_path);
        assert!(
            findings.is_empty(),
            "{rule}: allowed fixture must be clean (the allow must both parse and attach), got {findings:?}"
        );
    }
}

#[test]
fn every_manifest_rule_fires_exactly_once_on_its_bad_fixture() {
    for (rule, as_path) in MANIFEST_FIXTURES {
        let findings = lint_manifest_fixture(rule, "bad", as_path);
        assert_eq!(
            findings.len(),
            1,
            "{rule}: bad fixture must produce exactly one finding, got {findings:?}"
        );
        assert_eq!(findings[0].rule, *rule, "{rule}: wrong rule fired");
    }
}

#[test]
fn every_manifest_rule_is_silenced_by_a_reasoned_allow() {
    for (rule, as_path) in MANIFEST_FIXTURES {
        let findings = lint_manifest_fixture(rule, "allowed", as_path);
        assert!(
            findings.is_empty(),
            "{rule}: allowed fixture must be clean (the allow must both parse and attach), got {findings:?}"
        );
    }
}

#[test]
fn fixture_corpus_covers_every_rule() {
    for r in RULES {
        assert!(
            FIXTURES.iter().any(|(rule, _)| rule == &r.name),
            "rule {} has no fixture pair",
            r.name
        );
    }
    for r in MANIFEST_RULES {
        assert!(
            MANIFEST_FIXTURES.iter().any(|(rule, _)| rule == &r.name),
            "manifest rule {} has no fixture pair",
            r.name
        );
    }
    assert_eq!(
        FIXTURES.len() + MANIFEST_FIXTURES.len(),
        RULES.len() + MANIFEST_RULES.len()
    );
}

#[test]
fn bad_fixtures_fire_regardless_of_stated_rule_only_via_their_own_rule() {
    // Anti-overlap: a bad fixture must not trip a *different* rule, or the
    // "exactly once" contract above would be testing the wrong thing.
    for (rule, as_path) in FIXTURES {
        for f in lint_fixture(rule, "bad", as_path) {
            assert_eq!(f.rule, *rule, "{rule}: cross-rule contamination: {f:?}");
        }
    }
    for (rule, as_path) in MANIFEST_FIXTURES {
        for f in lint_manifest_fixture(rule, "bad", as_path) {
            assert_eq!(f.rule, *rule, "{rule}: cross-rule contamination: {f:?}");
        }
    }
}
