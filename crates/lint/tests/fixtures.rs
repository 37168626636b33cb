//! Fixture-tree tests: every rule has a positive case (the `bad_tree`
//! mini-workspace trips it with the exact file/line) and a negative case
//! (the `clean_tree` mini-workspace exercises the same shapes — pipeline
//! exemption, `#[cfg(test)]` gating, reasoned pragmas, dev-dependencies —
//! and comes back clean). A final test holds the real workspace itself to
//! the lint-clean bar.

use qntn_lint::{lint_source, lint_workspace, Diagnostic};
use std::path::{Path, PathBuf};

fn fixture(tree: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(tree)
}

fn lint_fixture(tree: &str) -> Vec<Diagnostic> {
    lint_workspace(&fixture(tree)).expect("fixture tree readable")
}

fn rule_hits<'d>(diags: &'d [Diagnostic], rule: &str) -> Vec<&'d Diagnostic> {
    diags.iter().filter(|d| d.rule == rule).collect()
}

#[test]
fn bad_tree_trips_single_materializer_outside_pipeline() {
    let diags = lint_fixture("bad_tree");
    let hits = rule_hits(&diags, "single-materializer");
    assert_eq!(hits.len(), 5, "{diags:#?}");
    assert!(hits.iter().all(|d| d.file == "crates/net/src/somefile.rs"));
    let lines: Vec<usize> = hits.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![5, 6, 10, 11, 12]);
    assert!(hits[0].snippet.contains("set_edge"));
    assert!(hits[1].snippet.contains("remove_edge"));
    assert!(hits[2].snippet.contains("begin_layer"));
    assert!(hits[3].snippet.contains("push_link"));
    assert!(hits[4].snippet.contains("push_hold"));
}

#[test]
fn bad_tree_trips_determinism_in_hot_path() {
    let diags = lint_fixture("bad_tree");
    let hits = rule_hits(&diags, "determinism");
    // One wall-clock read plus three HashMap tokens (use + type + ctor).
    assert_eq!(hits.len(), 4, "{diags:#?}");
    assert!(hits
        .iter()
        .all(|d| d.file == "crates/net/src/sweep_engine.rs"));
    assert!(hits.iter().any(|d| d.snippet.contains("Instant::now")));
}

#[test]
fn bad_tree_trips_atomic_writes_only() {
    let diags = lint_fixture("bad_tree");
    let hits = rule_hits(&diags, "atomic-writes-only");
    assert_eq!(hits.len(), 2, "{diags:#?}");
    assert!(hits.iter().all(|d| d.file == "crates/common/src/io.rs"));
    assert!(hits.iter().any(|d| d.snippet.contains("fs::write")));
    assert!(hits.iter().any(|d| d.snippet.contains("File::create")));
}

#[test]
fn bad_tree_trips_no_panic_bins() {
    let diags = lint_fixture("bad_tree");
    let hits = rule_hits(&diags, "no-panic-bins");
    assert_eq!(hits.len(), 3, "{diags:#?}");
    assert!(hits
        .iter()
        .all(|d| d.file == "crates/bench/src/bin/tool.rs"));
    let lines: Vec<usize> = hits.iter().map(|d| d.line).collect();
    assert_eq!(lines, vec![6, 7, 8], "unwrap, expect, panic! in order");
}

#[test]
fn bad_tree_trips_layering() {
    let diags = lint_fixture("bad_tree");
    let hits = rule_hits(&diags, "layering");
    assert_eq!(hits.len(), 1, "{diags:#?}");
    assert_eq!(hits[0].file, "crates/geo/Cargo.toml");
    assert_eq!(hits[0].line, 8);
    assert!(hits[0].message.contains("layering violation"));
    assert!(hits[0].snippet.contains("qntn-net"));
}

#[test]
fn bad_tree_reports_malformed_pragmas() {
    let diags = lint_fixture("bad_tree");
    let hits = rule_hits(&diags, "bad-pragma");
    assert_eq!(hits.len(), 4, "{diags:#?}");
    assert!(hits.iter().all(|d| d.file == "crates/net/src/pragmas.rs"));
    assert!(hits.iter().any(|d| d.message.contains("no-such-rule")));
    // A typo of a live rule id surfaces instead of silently disarming
    // nothing, and so does a retired rule id.
    assert!(hits.iter().any(|d| d.message.contains("float-reducton")));
    assert!(hits.iter().any(|d| d.message.contains("result-swallow")));
}

#[test]
fn bad_tree_trips_float_reduction_on_the_parallel_chain() {
    let diags = lint_fixture("bad_tree");
    let hits = rule_hits(&diags, "float-reduction");
    assert_eq!(hits.len(), 1, "{diags:#?}");
    assert_eq!(hits[0].file, "crates/net/src/sweep_engine.rs");
    assert_eq!(hits[0].line, 15);
    assert!(hits[0].message.contains("`.sum()` after `par_iter`"));
}

#[test]
fn bad_tree_total_is_every_expected_violation_and_nothing_else() {
    let diags = lint_fixture("bad_tree");
    assert_eq!(diags.len(), 20, "{diags:#?}");
}

#[test]
fn diagnostics_are_globally_sorted_by_file_line_col_rule() {
    let diags = lint_fixture("bad_tree");
    let keys: Vec<(&str, usize, usize, &str)> = diags
        .iter()
        .map(|d| (d.file.as_str(), d.line, d.col, d.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "output order must be (file, line, col, rule)");
    // Spot-pin the cross-file order: bench < common < geo < net.
    let files: Vec<&str> = diags.iter().map(|d| d.file.as_str()).collect();
    let first_of = |prefix: &str| files.iter().position(|f| f.starts_with(prefix)).unwrap();
    assert!(first_of("crates/bench/") < first_of("crates/common/"));
    assert!(first_of("crates/common/") < first_of("crates/geo/"));
    assert!(first_of("crates/geo/") < first_of("crates/net/"));
}

#[test]
fn clean_tree_is_clean() {
    let diags = lint_fixture("clean_tree");
    assert!(
        diags.is_empty(),
        "clean fixture tree must produce no diagnostics: {diags:#?}"
    );
}

#[test]
fn clean_tree_counts_its_pragma_suppressions_exactly() {
    let outcome =
        qntn_lint::lint_workspace_outcome(&fixture("clean_tree")).expect("fixture tree readable");
    assert!(outcome.diags.is_empty());
    // 3 HashMap tokens behind the runtime.rs allow-file, 1 Instant::now
    // behind the pipeline.rs trailing pragma, 1 fs::write in other.rs,
    // 1 panic! in the tool.rs bin — nothing silently ignored.
    assert_eq!(outcome.suppressed, 6);
}

#[test]
fn file_scope_pragma_works_after_an_attribute_header() {
    // The runtime.rs fixture opens with `#![allow(dead_code)]` before the
    // `allow-file` pragma; the pragma must still disarm the whole file.
    let src = std::fs::read_to_string(fixture("clean_tree").join("crates/net/src/runtime.rs"))
        .expect("fixture file");
    assert!(
        src.starts_with("#!["),
        "fixture must open with an attribute"
    );
    let diags = lint_source("crates/net/src/runtime.rs", &src);
    assert!(diags.is_empty(), "{diags:#?}");
    // Without the pragma line, the same file trips `determinism` on all
    // three HashMap tokens.
    let stripped: String = src
        .lines()
        .filter(|l| !l.contains("qntn-lint:"))
        .map(|l| format!("{l}\n"))
        .collect();
    let diags = lint_source("crates/net/src/runtime.rs", &stripped);
    assert_eq!(diags.len(), 3, "{diags:#?}");
}

#[test]
fn same_line_pragma_suppresses_the_violation_on_its_own_line() {
    let rel = "crates/net/src/pipeline.rs";
    let bad = "pub fn f() -> f64 {\n    let t = std::time::Instant::now();\n    t.elapsed().as_secs_f64()\n}\n";
    assert_eq!(lint_source(rel, bad).len(), 1);
    let ok = "pub fn f() -> f64 {\n    let t = std::time::Instant::now(); // qntn-lint: allow(determinism) -- timing reported, not folded in\n    t.elapsed().as_secs_f64()\n}\n";
    assert!(lint_source(rel, ok).is_empty());
}

#[test]
fn semantic_rules_accept_pragma_suppression() {
    let rel = "crates/net/src/sweep_engine.rs";
    let bad = "pub fn f(xs: &[f64]) -> f64 {\n    xs.par_iter().map(|x| x + 1.0).sum::<f64>()\n}\n";
    assert_eq!(lint_source(rel, bad).len(), 1);
    let ok = "pub fn f(xs: &[f64]) -> f64 {\n    // qntn-lint: allow(float-reduction) -- fixture: deliberate parallel sum\n    xs.par_iter().map(|x| x + 1.0).sum::<f64>()\n}\n";
    assert!(lint_source(rel, ok).is_empty());
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

/// The real workspace itself is lint-clean.
#[test]
fn real_workspace_is_lint_clean() {
    let diags = lint_workspace(&workspace_root()).expect("workspace readable");
    assert!(diags.is_empty(), "workspace has violations: {diags:#?}");
}

/// The value of `key` in table `[table]` of a manifest. A line scan is
/// enough: the workspace manifests are flat `key = value` tables.
fn manifest_value<'m>(manifest: &'m str, table: &str, key: &str) -> Option<&'m str> {
    let mut current = "";
    manifest.lines().map(str::trim).find_map(|line| {
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            current = header;
            return None;
        }
        let (k, v) = line.split_once('=')?;
        (current == table && k.trim() == key).then(|| v.trim())
    })
}

/// Discarded `Result`s are denied by the workspace lint table, which
/// covers only the packages that inherit it: a crate without
/// `[lints] workspace = true` would escape it without a word.
#[test]
fn every_crate_inherits_the_workspace_lints() {
    let root = workspace_root();
    let read = |path: &Path| std::fs::read_to_string(path).expect("manifest readable");
    let workspace = read(&root.join("Cargo.toml"));
    for (table, lint) in [
        ("workspace.lints.rust", "unused_must_use"),
        ("workspace.lints.clippy", "let_underscore_must_use"),
    ] {
        let level = manifest_value(&workspace, table, lint);
        assert_eq!(level, Some("\"deny\""), "[{table}] must deny {lint}");
    }
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ readable");
    let manifests: Vec<PathBuf> = crates
        .map(|entry| entry.expect("crates/ entry").path().join("Cargo.toml"))
        .filter(|manifest| manifest.is_file())
        .chain([root.join("Cargo.toml")])
        .collect();
    assert!(manifests.len() > 1, "no crate manifests found");
    for manifest in &manifests {
        let text = read(manifest);
        let inherits = manifest_value(&text, "lints", "workspace") == Some("true");
        assert!(
            inherits,
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
    }
}
