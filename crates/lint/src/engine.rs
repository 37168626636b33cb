//! The rule engine: file discovery, per-file context, and rule dispatch.
//!
//! The engine walks the workspace (skipping `target/`, `vendor/`, `.git/`
//! and fixture trees), scans each `.rs` file into a masked token view
//! ([`crate::lexer`]), computes which lines are test code, parses the
//! allow pragmas, and hands the bundle to every source rule. Pragma
//! suppression is applied centrally, so a rule only decides *what* is a
//! violation, never whether the author excused it.
//!
//! The vendored dependency stubs under `vendor/` are exempt by
//! construction: they stand in for external crates, which no in-house
//! architectural invariant governs.

use crate::diag::Diagnostic;
use crate::lexer::{self, Scan, TokenView};
use crate::parse::Tree;
use crate::pragma::Pragmas;
use crate::rules;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Everything a source rule gets to look at for one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path, `/`-separated.
    pub rel: &'a str,
    /// Original source text.
    pub src: &'a str,
    /// The masked scan of `src`.
    pub scan: &'a Scan,
    /// Token view over the masked source.
    pub tokens: &'a TokenView<'a>,
    /// `line_is_test[line - 1]`: is the line inside a `#[cfg(test)]` item?
    pub line_is_test: &'a [bool],
    /// The delimiter-nesting tree ([`crate::parse`]).
    pub tree: &'a Tree,
}

impl FileCtx<'_> {
    /// Is the whole file test/bench/example scaffolding (by location)?
    pub fn is_test_file(&self) -> bool {
        let r = self.rel;
        r.contains("/tests/")
            || r.contains("/benches/")
            || r.contains("/examples/")
            || r.starts_with("tests/")
            || r.starts_with("benches/")
            || r.starts_with("examples/")
    }

    /// Is `line` (1-based) test code — either a test file or inside a
    /// `#[cfg(test)]` region?
    pub fn is_test_line(&self, line: usize) -> bool {
        self.is_test_file() || self.line_is_test.get(line - 1).copied().unwrap_or(false)
    }

    /// Every match of `pattern` in the masked token stream, as a ready
    /// diagnostic for `rule`.
    pub fn hits(&self, pattern: &[&str], rule: &'static str, message: &str) -> Vec<Diagnostic> {
        self.tokens
            .find_all(pattern)
            .into_iter()
            .map(|offset| {
                let (line, col) = self.scan.position(offset);
                Diagnostic {
                    file: self.rel.to_string(),
                    line,
                    col,
                    rule,
                    message: message.to_string(),
                    snippet: self.scan.line_text(self.src, line).trim().to_string(),
                }
            })
            .collect()
    }
}

/// Mark every line covered by a `#[cfg(test)]` item (attribute through the
/// item's closing brace or terminating semicolon).
pub fn test_lines(scan: &Scan, tv: &TokenView<'_>) -> Vec<bool> {
    let mut flags = vec![false; scan.line_count()];
    let toks = tv.toks();
    let mut i = 0;
    while i < toks.len() {
        if !tv.matches_at(i, &["#", "[", "cfg", "(", "test", ")", "]"]) {
            i += 1;
            continue;
        }
        let start_line = scan.position(toks[i].start).0;
        let mut j = i + 7;
        // Skip any further attributes between the cfg and the item.
        while j < toks.len() && tv.text(j) == "#" {
            j += 1;
            if j < toks.len() && tv.text(j) == "[" {
                let mut depth = 0usize;
                while j < toks.len() {
                    match tv.text(j) {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
        }
        // The item body: everything up to the matching `}` of its first
        // brace, or a `;` reached before any brace opens.
        let mut depth = 0usize;
        let mut end_tok = None;
        while j < toks.len() {
            match tv.text(j) {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end_tok = Some(j);
                        break;
                    }
                }
                ";" if depth == 0 => {
                    end_tok = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let end_line = match end_tok {
            Some(e) => scan.position(toks[e].start).0,
            None => scan.line_count(),
        };
        for line in start_line..=end_line.min(flags.len()) {
            flags[line - 1] = true;
        }
        i = j + 1;
    }
    flags
}

/// One lint pass's result: surviving diagnostics plus how many were
/// pragma-suppressed (reported in the JSON output).
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Diagnostics that survived pragma filtering, sorted.
    pub diags: Vec<Diagnostic>,
    /// Violations excused by a reasoned `allow` pragma.
    pub suppressed: usize,
}

/// Lint one source file (pragmas applied, diagnostics sorted), with the
/// pragma-suppressed count.
pub fn lint_source_outcome(rel: &str, src: &str) -> LintOutcome {
    let scan = lexer::scan(src);
    let tv = TokenView::new(&scan);
    let line_is_test = test_lines(&scan, &tv);
    let pragmas = Pragmas::parse(&scan.comments, rules::RULE_IDS);
    let tree = Tree::build(&tv);
    let ctx = FileCtx {
        rel,
        src,
        scan: &scan,
        tokens: &tv,
        line_is_test: &line_is_test,
        tree: &tree,
    };

    let mut out = LintOutcome {
        diags: pragmas.error_diagnostics(rel, src),
        suppressed: 0,
    };
    for d in rules::check_source(&ctx) {
        if pragmas.allows(d.rule, d.line) {
            out.suppressed += 1;
        } else {
            out.diags.push(d);
        }
    }
    out.diags
        .sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// Lint one source file (pragmas applied, diagnostics sorted).
pub fn lint_source(rel: &str, src: &str) -> Vec<Diagnostic> {
    lint_source_outcome(rel, src).diags
}

/// Directories never descended into.
fn skip_dir(name: &str) -> bool {
    matches!(
        name,
        "target" | "vendor" | "out" | "fixtures" | ".git" | ".cargo" | ".github"
    )
}

/// Collect every `.rs` file and every `Cargo.toml` under `root`,
/// deterministically ordered.
pub fn discover(root: &Path) -> io::Result<(Vec<PathBuf>, Vec<PathBuf>)> {
    let mut sources = Vec::new();
    let mut manifests = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if path.is_dir() {
                if !skip_dir(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                sources.push(path);
            } else if name == "Cargo.toml" {
                manifests.push(path);
            }
        }
    }
    sources.sort();
    manifests.sort();
    Ok((sources, manifests))
}

/// Workspace-relative `/`-separated path.
fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lint the whole workspace rooted at `root`: every source rule over every
/// `.rs` file, plus the layering rule over the crate manifests. The
/// combined diagnostics are globally sorted by (file, line, col, rule) so
/// output order never depends on walk or rule iteration order.
pub fn lint_workspace_outcome(root: &Path) -> io::Result<LintOutcome> {
    let (sources, manifests) = discover(root)?;
    let mut out = LintOutcome::default();
    for path in &sources {
        let rel = relative(root, path);
        let src = fs::read_to_string(path)?;
        let one = lint_source_outcome(&rel, &src);
        out.diags.extend(one.diags);
        out.suppressed += one.suppressed;
    }
    out.diags
        .extend(rules::layering::check_manifests(root, &manifests)?);
    out.diags
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(out)
}

/// Lint the whole workspace rooted at `root` (diagnostics only).
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    Ok(lint_workspace_outcome(root)?.diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn test_flags(src: &str) -> Vec<bool> {
        let s = scan(src);
        let tv = TokenView::new(&s);
        test_lines(&s, &tv)
    }

    #[test]
    fn cfg_test_mod_region_is_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let flags = test_flags(src);
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_use_statement_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() {}\n";
        let flags = test_flags(src);
        assert_eq!(flags, vec![true, true, false]);
    }

    #[test]
    fn cfg_test_with_second_attribute() {
        let src =
            "#[cfg(test)]\n#[allow(dead_code)]\nmod tests {\n    fn t() {}\n}\nfn live() {}\n";
        let flags = test_flags(src);
        assert_eq!(&flags[..5], &[true; 5]);
        assert!(!flags[5]);
    }

    #[test]
    fn cfg_attr_is_not_cfg_test() {
        let src = "#![cfg_attr(not(test), deny(warnings))]\nfn live() {}\n";
        let flags = test_flags(src);
        assert!(flags.iter().all(|&f| !f));
    }

    #[test]
    fn nested_braces_inside_test_mod() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { if x { y() } }\n}\nfn live() {}\n";
        let flags = test_flags(src);
        assert!(flags[3], "closing line of mod is test");
        assert!(!flags[4]);
    }

    #[test]
    fn lint_source_suppresses_via_pragma() {
        let rel = "crates/bench/src/bin/tool.rs";
        let bad = "fn main() { x.unwrap(); }\n";
        assert_eq!(lint_source(rel, bad).len(), 1);
        let ok = "fn main() { x.unwrap(); } // qntn-lint: allow(no-panic-bins) -- demo\n";
        assert!(lint_source(rel, ok).is_empty());
    }

    #[test]
    fn lint_source_reports_bad_pragmas() {
        let rel = "crates/net/src/lib.rs";
        let src = "// qntn-lint: allow(no-panic-bins)\n";
        let d = lint_source(rel, src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "bad-pragma");
    }
}
