//! Diagnostics: what a rule reports and how it renders.

use std::fmt;

/// One rule violation, pointing at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Stable rule identifier (e.g. `atomic-writes-only`).
    pub rule: &'static str,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    /// The machine-readable format CI greps:
    /// `file:line:col: [rule-id] message` followed by an indented snippet.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )?;
        write!(f, "    | {}", self.snippet)
    }
}

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render diagnostics as the stable machine-readable JSON document the
/// `--format json` flag emits. Key order, separators and the trailing
/// newline are all fixed, so two runs over the same tree produce
/// byte-identical output (pinned by `tests/cli.rs`).
pub fn render_json(diags: &[Diagnostic], suppressed: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"qntn-lint\",\n");
    out.push_str(&format!(
        "  \"rule_count\": {},\n",
        crate::rules::RULES.len()
    ));
    out.push_str(&format!("  \"violation_count\": {},\n", diags.len()));
    out.push_str(&format!("  \"suppressed\": {suppressed},\n"));
    out.push_str("  \"violations\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&d.file),
            d.line,
            d.col,
            d.rule,
            json_escape(&d.message)
        ));
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_grep_format() {
        let d = Diagnostic {
            file: "crates/net/src/x.rs".into(),
            line: 12,
            col: 5,
            rule: "atomic-writes-only",
            message: "artifact writes must go through qntn_common::atomic_write".into(),
            snippet: "fs::write(path, bytes)?;".into(),
        };
        let text = d.to_string();
        assert!(text.starts_with("crates/net/src/x.rs:12:5: [atomic-writes-only] "));
        assert!(text.ends_with("    | fs::write(path, bytes)?;"));
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let d = Diagnostic {
            file: "crates/net/src/x.rs".into(),
            line: 3,
            col: 7,
            rule: "float-reduction",
            message: "a \"quoted\" message".into(),
            snippet: String::new(),
        };
        let one = render_json(std::slice::from_ref(&d), 2);
        let two = render_json(&[d], 2);
        assert_eq!(one, two, "same input renders byte-identically");
        assert!(one.contains("\"violation_count\": 1"));
        assert!(one.contains("\"suppressed\": 2"));
        assert!(one.contains("a \\\"quoted\\\" message"));
        assert!(one.ends_with("}\n"));
    }

    #[test]
    fn json_empty_violations_render_as_empty_array() {
        let text = render_json(&[], 0);
        assert!(text.contains("\"violations\": []"));
    }
}
