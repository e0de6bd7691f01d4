//! Report rendering: an aligned text table and a `bcc-lint/v1` JSON
//! document, written through the workspace codec ([`bcc_obs::json`]).
//! Rule messages quote arbitrary source text, which the codec escapes.

use std::fmt::Write as _;

use bcc_obs::json::Value;

use crate::manifests::MANIFEST_RULES;
use crate::rules::{Finding, RULES};

/// A completed lint run over one workspace tree.
#[derive(Debug)]
pub struct Report {
    /// The workspace root the run scanned.
    pub root: String,
    /// How many `.rs` files were lexed and checked.
    pub files_scanned: usize,
    /// All findings, sorted by path, then line/column.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bcc-lint: {} file(s) scanned, {} finding(s)",
            self.files_scanned,
            self.findings.len()
        );
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}:{}:{}: [{}] {}",
                f.path, f.line, f.col, f.rule, f.message
            );
        }
        if self.is_clean() {
            let _ = writeln!(
                out,
                "workspace is clean under all {} rules",
                RULES.len() + MANIFEST_RULES.len()
            );
        }
        out
    }

    /// Serializes the report as JSON (schema `bcc-lint/v1`), one line.
    pub fn to_json(&self) -> String {
        let rules = RULES
            .iter()
            .chain(MANIFEST_RULES)
            .map(|r| Value::object([("name", r.name.into()), ("summary", r.summary.into())]))
            .collect();
        let findings = self
            .findings
            .iter()
            .map(|f| {
                Value::object([
                    ("rule", f.rule.into()),
                    ("path", f.path.as_str().into()),
                    ("line", f.line.into()),
                    ("col", f.col.into()),
                    ("message", f.message.as_str().into()),
                ])
            })
            .collect();
        let report = Value::object([
            ("schema", "bcc-lint/v1".into()),
            ("root", self.root.as_str().into()),
            ("files_scanned", self.files_scanned.into()),
            ("findings_total", self.findings.len().into()),
            ("rules", rules),
            ("findings", findings),
        ]);
        format!("{report}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `report_json_bytes_are_pinned`'s document.
    const GOLDEN_REPORT: &str = "{\"schema\":\"bcc-lint/v1\",\"root\":\"C:\\\\ws\\\\\\\"q\\\"\",\"files_scanned\":2,\
     \"findings_total\":1,\"rules\":[{\"name\":\"no-unsafe\",\
     \"summary\":\"no unsafe code and no allow(unsafe_code) anywhere; every crate root must carry #![forbid(unsafe_code)]\"},\
     {\"name\":\"no-unordered-iteration\",\"summary\":\"HashMap/HashSet (nondeterministic iteration order) banned in the deterministic crates; use BTreeMap/BTreeSet or sorted vecs\"},\
     {\"name\":\"no-wall-clock-in-work-paths\",\"summary\":\"Instant/SystemTime only in bcc-obs wall metrics and bench/example timing code\"},\
     {\"name\":\"no-global-mutable-state\",\"summary\":\"static mut is banned everywhere; interior-mutable statics (Atomic*/Mutex/RwLock/Cell/RefCell/UnsafeCell) only in bcc-obs\"},\
     {\"name\":\"no-stray-printing\",\"summary\":\"println!/eprintln! (and friends) banned in library code; binaries, tests, benches, examples and the bench-table crate are exempt\"},\
     {\"name\":\"rayon-order-audit\",\"summary\":\"par_bridge, and for_each/reduce on parallel iterators, flagged in the deterministic crates unless the allow names the order-restoring mechanism\"},\
     {\"name\":\"manifest-workspace-lints\",\"summary\":\"every package manifest must opt into the shared lint levels with `[lints] workspace = true`\"},\
     {\"name\":\"manifest-dependency-drift\",\"summary\":\"dependencies must inherit from [workspace.dependencies] (`name.workspace = true`); inline versions and undeclared names drift from the workspace resolution\"}],\
     \"findings\":[{\"rule\":\"no-stray-printing\",\"path\":\"crates/core/src/we\\\"ird\\\\path\\t.rs\",\
     \"line\":7,\"col\":5,\"message\":\"`println!(\\\"{x}\\\")` in library code\\n\"}]}\n";

    #[test]
    fn json_escaping() {
        let string = |s: &str| Value::from(s).to_string();
        assert_eq!(string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(string("plain"), "\"plain\"");
    }

    #[test]
    fn report_json_shape() {
        let report = Report {
            root: "/tmp/ws".into(),
            files_scanned: 3,
            findings: vec![Finding {
                rule: "no-stray-printing",
                path: "crates/core/src/x.rs".into(),
                line: 7,
                col: 5,
                message: "`println!` in library code".into(),
            }],
        };
        let json = report.to_json();
        assert!(json.starts_with("{\"schema\":\"bcc-lint/v1\""));
        assert!(json.contains("\"findings_total\":1"));
        assert!(json.contains("\"line\":7"));
        assert!(
            json.contains("no-unordered-iteration"),
            "rule table is embedded"
        );
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn report_json_bytes_are_pinned() {
        let report = Report {
            root: "C:\\ws\\\"q\"".into(),
            files_scanned: 2,
            findings: vec![Finding {
                rule: "no-stray-printing",
                path: "crates/core/src/we\"ird\\path\t.rs".into(),
                line: 7,
                col: 5,
                message: "`println!(\"{x}\")` in library code\n".into(),
            }],
        };
        assert_eq!(report.to_json(), GOLDEN_REPORT);
    }

    #[test]
    fn torn_reports_are_refused() {
        let doc = GOLDEN_REPORT.trim_end();
        for cut in 0..doc.len() {
            let kind = bcc_obs::json::parse(&doc[..cut]).unwrap_err().kind;
            assert_eq!(kind, bcc_obs::json::ErrorKind::UnexpectedEnd, "cut {cut}");
        }
    }
}
