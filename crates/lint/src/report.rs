//! The machine-readable `LINT_report.json` and the human diagnostics.
//!
//! The report goes through `bgl_trace::json`, the workspace's one JSON
//! writer, and emits keys and entries in a fixed sorted order, so a
//! clean tree always produces the same report bytes.

use crate::rules::{AllowRecord, Finding, RULES};
use bgl_trace::json;
use std::fmt::Write as _;

/// Everything one lint run produced.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Files scanned (after skip rules).
    pub files_scanned: usize,
    /// Surviving findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Pragmas that suppressed at least one finding.
    pub allows: Vec<AllowRecord>,
    /// Findings suppressed by pragmas.
    pub suppressed: usize,
}

impl LintReport {
    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// `file:line: [rule] message` diagnostics, one per line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        }
        out
    }

    /// One-line summary for the happy path.
    pub fn render_summary(&self) -> String {
        format!(
            "bgl-lint: {} files, {} findings, {} suppressed by {} allow pragmas",
            self.files_scanned,
            self.findings.len(),
            self.suppressed,
            self.allows.len()
        )
    }

    /// The machine-readable report document.
    pub fn to_json(&self) -> String {
        json::pretty(|w| {
            w.field("version", 1u32)
                .field("files_scanned", self.files_scanned)
                .field("suppressed", self.suppressed)
                .key("rules")
                .arr(|w| {
                    for r in RULES {
                        w.obj(|w| {
                            w.field("id", r.id)
                                .field("name", r.name)
                                .field("summary", r.summary);
                        });
                    }
                })
                .key("findings")
                .arr(|w| {
                    for f in &self.findings {
                        w.obj(|w| {
                            w.field("file", &f.file)
                                .field("line", f.line)
                                .field("rule", f.rule)
                                .field("message", &f.message);
                        });
                    }
                })
                .key("allows")
                .arr(|w| {
                    for a in &self.allows {
                        w.obj(|w| {
                            w.field("file", &a.file)
                                .field("line", a.line)
                                .field("rule", &a.rule)
                                .field("reason", &a.reason);
                        });
                    }
                });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_is_stable_and_parseable() {
        let mut rep = LintReport {
            files_scanned: 2,
            suppressed: 1,
            ..LintReport::default()
        };
        rep.findings.push(Finding {
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            rule: "r1",
            message: "a \"quoted\" message".into(),
        });
        rep.allows.push(AllowRecord {
            file: "crates/x/src/lib.rs".into(),
            line: 9,
            rule: "d1".into(),
            reason: "lookup only".into(),
        });
        let j1 = rep.to_json();
        let j2 = rep.to_json();
        assert_eq!(j1, j2);
        let v = bgl_trace::json::parse(&j1).expect("report JSON parses");
        assert_eq!(v.get("files_scanned").and_then(|x| x.as_f64()), Some(2.0));
        let findings = v
            .get("findings")
            .and_then(|x| x.as_arr())
            .expect("findings");
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].get("message").and_then(|m| m.as_str()),
            Some("a \"quoted\" message")
        );
        let rules = v.get("rules").and_then(|x| x.as_arr()).expect("rules");
        assert_eq!(rules.len(), RULES.len());
        assert!(rep.render_text().contains("crates/x/src/lib.rs:3: [r1]"));
        assert!(rep.render_summary().contains("2 files"));
    }
}
