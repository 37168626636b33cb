//! `perf_gate` — the CI performance-regression gate over the committed
//! `BENCH_sweep.json` / `BENCH_serve.json` wall-time baselines.
//!
//! ```text
//! perf_gate --baseline PATH --fresh PATH
//! ```
//!
//! The file format, the gated cells and the comparison live in
//! [`qntn_bench::schema`]; this binary parses arguments and maps the
//! verdict onto exit codes: 0 within tolerance, 1 regression, 2 usage
//! error, 3 file unreadable, unparseable, or the two files are different
//! kinds or share no cell. Like every workspace binary, it is panic-free
//! under `qntn-lint`'s `no-panic-bins` rule.

use qntn_bench::schema::{self, TOLERANCE};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
perf_gate --baseline PATH --fresh PATH

Compares wall times cell by cell between two bench baseline files of the
same kind (BENCH_sweep.json: engine_clean per constellation size, and
setup per --scale entry; BENCH_serve.json: serve time per satellites x
requests); exits 1 when the fresh run is more than 2x slower than the
baseline in any cell.

exit codes:
  0  every common cell is within tolerance
  1  at least one cell regressed
  2  usage error
  3  a file could not be read or parsed, the kinds differ, or the files
     share no cell
";

fn parse_args(args: &[String]) -> Result<(PathBuf, PathBuf), String> {
    let mut baseline = None;
    let mut fresh = None;
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        let slot = match a {
            "--baseline" => &mut baseline,
            "--fresh" => &mut fresh,
            _ => return Err(format!("unknown argument `{a}`")),
        };
        i += 1;
        let value = args
            .get(i)
            .ok_or_else(|| format!("flag `{a}` needs a value"))?;
        *slot = Some(PathBuf::from(value));
        i += 1;
    }
    Ok((
        baseline.ok_or("missing required flag `--baseline`")?,
        fresh.ok_or("missing required flag `--fresh`")?,
    ))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (baseline, fresh) = match parse_args(&raw) {
        Ok(paths) => paths,
        Err(msg) => {
            eprintln!("error: {msg}\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let gate = match (schema::load(&baseline), schema::load(&fresh)) {
        (Ok(b), Ok(f)) => schema::gate(&b, &f),
        (Err(e), _) | (_, Err(e)) => Err(e),
    };
    let gate = match gate {
        Ok(gate) => gate,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };
    for line in &gate.lines {
        println!("{line}");
    }
    if gate.compared == 0 {
        eprintln!("error: the two files share no cell");
        ExitCode::from(3)
    } else if gate.regressed {
        eprintln!("perf gate: FAILED (>{TOLERANCE}x regression)");
        ExitCode::from(1)
    } else {
        println!("perf gate: ok ({} cell(s) compared)", gate.compared);
        ExitCode::SUCCESS
    }
}
