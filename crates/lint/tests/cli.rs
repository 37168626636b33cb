//! Process-boundary tests for the `qntn-lint` binary: exit codes (0 clean,
//! 1 violations, 2 usage errors), the machine-readable
//! `file:line:col: [rule-id]` diagnostic format, `--list-rules`, `--help`,
//! and `--root`. Cargo exposes the built binary via
//! `CARGO_BIN_EXE_qntn-lint`, so these run the exact bits `cargo lint`
//! would.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn qntn_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_qntn-lint"))
        .args(args)
        .output()
        .expect("failed to spawn qntn-lint")
}

fn fixture(tree: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(tree)
        .to_string_lossy()
        .into_owned()
}

/// Every rule id, in `--list-rules` order.
const RULE_IDS: [&str; 6] = [
    "single-materializer",
    "atomic-writes-only",
    "no-panic-bins",
    "determinism",
    "layering",
    "float-reduction",
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn clean_tree_exits_zero_and_says_clean() {
    let out = qntn_lint(&["--root", &fixture("clean_tree")]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("qntn-lint: clean"), "{stdout}");
}

#[test]
fn bad_tree_exits_one_with_machine_readable_diagnostics() {
    let out = qntn_lint(&["--root", &fixture("bad_tree")]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // file:line:col: [rule-id] message — the contract scripts grep on.
    assert!(
        stdout.contains("crates/bench/src/bin/tool.rs:6:"),
        "{stdout}"
    );
    for rule in [
        "[single-materializer]",
        "[atomic-writes-only]",
        "[no-panic-bins]",
        "[determinism]",
        "[layering]",
        "[bad-pragma]",
        "[float-reduction]",
    ] {
        assert!(stdout.contains(rule), "missing {rule} in:\n{stdout}");
    }
    assert!(stdout.contains("violation(s)"), "{stdout}");
}

#[test]
fn real_workspace_exits_zero() {
    let root = workspace_root();
    let out = qntn_lint(&["--root", root.to_str().expect("utf-8 root")]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace not lint-clean:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn list_rules_prints_every_id_with_a_description() {
    let out = qntn_lint(&["--list-rules"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in RULE_IDS {
        let line = stdout
            .lines()
            .find(|l| l.starts_with(&format!("{rule}  ")))
            .unwrap_or_else(|| panic!("missing {rule}: {stdout}"));
        assert!(
            line.len() > rule.len() + 2,
            "{rule} has no description: {line}"
        );
    }
    assert_eq!(stdout.lines().count(), RULE_IDS.len(), "{stdout}");
}

#[test]
fn help_documents_flags_and_pragma() {
    let out = qntn_lint(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "--root",
        "--list-rules",
        "--format",
        "--out",
        "qntn-lint: allow(",
    ]
    .into_iter()
    .chain(RULE_IDS)
    {
        assert!(stdout.contains(needle), "help lacks `{needle}`: {stdout}");
    }
}

#[test]
fn json_format_is_byte_stable_across_runs() {
    let root = fixture("bad_tree");
    let one = qntn_lint(&["--root", &root, "--format", "json"]);
    let two = qntn_lint(&["--root", &root, "--format", "json"]);
    assert_eq!(one.status.code(), Some(1));
    assert_eq!(
        one.stdout, two.stdout,
        "JSON output must be byte-identical across consecutive runs"
    );
    let text = String::from_utf8_lossy(&one.stdout);
    assert!(text.contains("\"tool\": \"qntn-lint\""), "{text}");
    assert!(text.contains("\"rule_count\": 6"), "{text}");
    assert!(text.contains("\"violation_count\": 20"), "{text}");
    assert!(text.contains("\"rule\": \"float-reduction\""), "{text}");
}

#[test]
fn json_reports_pragma_suppressed_count() {
    let out = qntn_lint(&["--root", &fixture("clean_tree"), "--format", "json"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"violation_count\": 0"), "{text}");
    assert!(text.contains("\"suppressed\": 6"), "{text}");
    assert!(text.contains("\"violations\": []"), "{text}");
}

#[test]
fn out_flag_writes_the_report_to_disk() {
    let dir = std::env::temp_dir().join(format!("qntn-lint-out-{}", std::process::id()));
    let path = dir.join("lint.json");
    let out = qntn_lint(&[
        "--root",
        &fixture("clean_tree"),
        "--format",
        "json",
        "--out",
        path.to_str().expect("utf-8 tmp path"),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let written = std::fs::read(&path).expect("--out file written");
    assert_eq!(
        written, out.stdout,
        "file contents match the printed report"
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}

#[test]
fn bad_format_value_exits_two() {
    let out = qntn_lint(&["--format", "xml"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown format"), "{stderr}");
}

#[test]
fn unknown_flag_exits_two_with_usage() {
    let out = qntn_lint(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument"), "{stderr}");
    assert!(stderr.contains("--list-rules"), "usage follows the error");
}

#[test]
fn root_flag_without_value_exits_two() {
    let out = qntn_lint(&["--root"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--root needs a value"), "{stderr}");
}

#[test]
fn missing_root_directory_exits_two() {
    let out = qntn_lint(&["--root", "/no/such/dir/anywhere"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
}
