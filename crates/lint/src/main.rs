//! The `qntn-lint` binary: scan the workspace, print diagnostics, exit
//! nonzero on any violation.
//!
//! ```text
//! qntn-lint [--root DIR] [--format text|json] [--out PATH] [--list-rules] [--help]
//!
//! exit codes:
//!   0  clean
//!   1  one or more violations (each printed as file:line:col: [rule] msg)
//!   2  usage or I/O error
//! ```

use qntn_lint::{diag, engine, rules};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
qntn-lint [--root DIR] [--format text|json] [--out PATH] [--list-rules]

Architectural linter for the QNTN workspace: enforces the pattern
invariants (single-materializer, atomic-writes-only, no-panic-bins,
determinism, layering) and the structural invariant float-reduction —
DESIGN.md sections 11 and 16. Invariants the compiler proves (discarded
Results, shared mutable captures in par_* closures, dB/eta mixing, typed
index families) are left to rustc, clippy and newtypes. Prints one
diagnostic per violation as `file:line:col: [rule-id] message` and exits
1 when any is found; suppress an intentional exception in-source with
`// qntn-lint: allow(<rule>) -- <reason>`.

flags:
  --root DIR        workspace root to scan (default: auto-detected)
  --format FMT      `text` (default) or `json` (stable machine-readable)
  --out PATH        also write the report to PATH (atomic tmp+rename)
  --list-rules      print each rule id with its one-line description
  --help            this text
";

fn workspace_root(explicit: Option<PathBuf>) -> Result<PathBuf, String> {
    if let Some(root) = explicit {
        return Ok(root);
    }
    // `cargo run -p qntn-lint` sets CARGO_MANIFEST_DIR to crates/lint.
    if let Ok(dir) = std::env::var("CARGO_MANIFEST_DIR") {
        let manifest = PathBuf::from(dir);
        if let Some(root) = manifest.parent().and_then(|p| p.parent()) {
            return Ok(root.to_path_buf());
        }
    }
    // Fallback: walk up from the current directory to a workspace manifest.
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace root found; pass --root".into());
        }
    }
}

/// Write the report atomically: temp file in the destination directory,
/// fsync, rename. qntn-lint sits below `qntn_common` in the layering
/// (layer 0 depends on nothing), so the helper is mirrored locally
/// instead of imported.
// qntn-lint: allow-file(atomic-writes-only) -- layer-0 crate cannot depend on qntn_common; this mirrors its tmp+fsync+rename discipline
fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let mut root = None;
    let mut format = Format::Text;
    let mut out_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--list-rules" => {
                for (rule, desc) in rules::RULES {
                    println!("{rule}  {desc}");
                }
                return ExitCode::SUCCESS;
            }
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage_error("--root needs a value"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some(other) => {
                    return usage_error(&format!("unknown format `{other}` (text|json)"))
                }
                None => return usage_error("--format needs a value"),
            },
            "--out" => match args.next() {
                Some(path) => out_path = Some(PathBuf::from(path)),
                None => return usage_error("--out needs a value"),
            },
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let root = match workspace_root(root) {
        Ok(root) => root,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = match engine::lint_workspace_outcome(&root) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let report = match format {
        Format::Json => diag::render_json(&outcome.diags, outcome.suppressed),
        Format::Text => {
            let mut text = String::new();
            for d in &outcome.diags {
                text.push_str(&d.to_string());
                text.push('\n');
            }
            if outcome.diags.is_empty() {
                text.push_str(&format!(
                    "qntn-lint: clean ({} rules)\n",
                    rules::RULES.len()
                ));
            } else {
                text.push_str(&format!(
                    "qntn-lint: {} violation(s)\n",
                    outcome.diags.len()
                ));
            }
            text
        }
    };
    print!("{report}");
    if let Some(path) = out_path {
        if let Err(e) = atomic_write(&path, report.as_bytes()) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if outcome.diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n");
    eprint!("{USAGE}");
    ExitCode::from(2)
}
