//! `perf_gate` — the CI performance-regression gate over the committed
//! `BENCH_sweep.json` / `BENCH_serve.json` wall-time baselines.
//!
//! ```text
//! perf_gate --baseline PATH --fresh PATH [--tolerance X]
//! ```
//!
//! The file kind is detected from the `"benchmark"` tag. For sweep files
//! the gate compares the `engine_clean` wall time of every constellation
//! size that appears in *both* files (the top-level paper entry and each
//! `"scales"` entry); for serve files it compares the `serve` wall time
//! keyed on `(satellites, requests)`. Either way it fails when any fresh
//! time exceeds `tolerance ×` its baseline (default 2.0). The generous
//! factor is deliberate: CI machines are noisy, shared, and
//! heterogeneous, so a tight gate would flap — the gate exists to catch
//! *algorithmic* regressions (an accidental O(N²) rescan, a lost pruning
//! layer), which show up as integer multiples, not percentages. Sizes
//! present in only one file are reported and skipped, never failed:
//! adding a new `--scale` must not break the gate before a baseline
//! exists. Comparing a sweep file against a serve file is a hard error —
//! the timings measure different work.
//!
//! Exit codes: 0 within tolerance, 1 regression, 2 usage error, 3 file
//! unreadable, unparseable, or the two files are different kinds.
//!
//! The parser is a deliberately tiny hand scan over the keys it needs
//! (`"satellites"`, then the next `"engine_clean"` or `"requests"` +
//! `"serve"`), matching the hand-formatted JSON `reproduce` writes; it
//! depends on no JSON crate and, like every workspace binary, is
//! panic-free under `qntn-lint`'s `no-panic-bins` rule.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
perf_gate --baseline PATH --fresh PATH [--tolerance X]

Compares wall times per size between two bench baseline files of the
same kind (BENCH_sweep.json: engine_clean per constellation size;
BENCH_serve.json: serve time per satellites x requests cell); exits 1
when the fresh run regresses by more than the tolerance factor
(default 2.0) at any size.

exit codes:
  0  every common size is within tolerance
  1  at least one size regressed
  2  usage error
  3  a file could not be read or parsed, or the kinds differ
";

struct Args {
    baseline: PathBuf,
    fresh: PathBuf,
    tolerance: f64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    fn value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
        *i += 1;
        args.get(*i)
            .map(String::as_str)
            .ok_or_else(|| format!("flag `{flag}` needs a value"))
    }

    let mut baseline = None;
    let mut fresh = None;
    let mut tolerance = 2.0;
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        match a {
            "--baseline" => baseline = Some(PathBuf::from(value(args, &mut i, a)?)),
            "--fresh" => fresh = Some(PathBuf::from(value(args, &mut i, a)?)),
            "--tolerance" => {
                let raw = value(args, &mut i, a)?;
                tolerance = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 1.0)
                    .ok_or_else(|| {
                        format!("flag `--tolerance`: need a finite factor >= 1, got `{raw}`")
                    })?;
            }
            _ => return Err(format!("unknown argument `{a}`")),
        }
        i += 1;
    }
    Ok(Args {
        baseline: baseline.ok_or("missing required flag `--baseline`")?,
        fresh: fresh.ok_or("missing required flag `--fresh`")?,
        tolerance,
    })
}

/// One measurement: a sweep entry keys on `satellites` alone
/// (`requests` is 0), a serve entry on `(satellites, requests)`.
struct Entry {
    satellites: u64,
    requests: u64,
    wall_ms: f64,
}

impl Entry {
    fn label(&self) -> String {
        if self.requests == 0 {
            format!("{:>6} sats", self.satellites)
        } else {
            format!("{:>6} sats x {} req", self.satellites, self.requests)
        }
    }
}

/// Scan for `key` at or after `from`; returns the offset just past the
/// key and the raw number token that follows its colon.
fn number_after<'a>(text: &'a str, key: &str, from: usize) -> Option<(usize, &'a str)> {
    let at = text[from..].find(key)? + from + key.len();
    let rest = text[at..].trim_start_matches([':', ' ']);
    let len = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    Some((at, &rest[..len]))
}

fn parse_u64(raw: &str, key: &str) -> Result<u64, String> {
    raw.parse::<u64>()
        .map_err(|_| format!("bad {key} value `{raw}`"))
}

fn parse_f64(raw: &str, key: &str) -> Result<f64, String> {
    raw.parse::<f64>()
        .map_err(|_| format!("bad {key} value `{raw}`"))
}

/// Pair every `"satellites": N` with the next `"engine_clean": X` — the
/// shape `reproduce bench` writes (the top-level paper entry and each
/// scales entry both put the size before the timing block).
fn parse_sweep(text: &str) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    let mut from = 0;
    while let Some((at, sats_raw)) = number_after(text, "\"satellites\"", from) {
        let satellites = parse_u64(sats_raw, "\"satellites\"")?;
        let (clean_at, clean_raw) = number_after(text, "\"engine_clean\"", at)
            .ok_or_else(|| format!("no \"engine_clean\" after \"satellites\": {satellites}"))?;
        entries.push(Entry {
            satellites,
            requests: 0,
            wall_ms: parse_f64(clean_raw, "\"engine_clean\"")?,
        });
        from = clean_at;
    }
    if entries.is_empty() {
        return Err("no (satellites, engine_clean) entries found".into());
    }
    Ok(entries)
}

/// Pair every `"satellites": N` with the following `"requests": M` and
/// `"serve": X` — the shape `reproduce bench` writes to
/// `BENCH_serve.json` (one entry per file today, but the scan is a loop
/// so a future multi-cell baseline keeps working).
fn parse_serve(text: &str) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    let mut from = 0;
    while let Some((at, sats_raw)) = number_after(text, "\"satellites\"", from) {
        let satellites = parse_u64(sats_raw, "\"satellites\"")?;
        let (_, req_raw) = number_after(text, "\"requests\"", at)
            .ok_or_else(|| format!("no \"requests\" after \"satellites\": {satellites}"))?;
        let (serve_at, serve_raw) = number_after(text, "\"serve\"", at)
            .ok_or_else(|| format!("no \"serve\" after \"satellites\": {satellites}"))?;
        entries.push(Entry {
            satellites,
            requests: parse_u64(req_raw, "\"requests\"")?,
            wall_ms: parse_f64(serve_raw, "\"serve\"")?,
        });
        from = serve_at;
    }
    if entries.is_empty() {
        return Err("no (satellites, requests, serve) entries found".into());
    }
    Ok(entries)
}

fn load(path: &Path) -> Result<(&'static str, Vec<Entry>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let with_path = |e: String| format!("{}: {e}", path.display());
    if text.contains("\"benchmark\": \"serve_day\"") {
        Ok(("serve_day", parse_serve(&text).map_err(with_path)?))
    } else {
        Ok(("sweep_day", parse_sweep(&text).map_err(with_path)?))
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ((base_kind, baseline), (fresh_kind, fresh)) =
        match (load(&args.baseline), load(&args.fresh)) {
            (Ok(b), Ok(f)) => (b, f),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                return ExitCode::from(3);
            }
        };
    if base_kind != fresh_kind {
        eprintln!("error: cannot compare a {base_kind} baseline against a {fresh_kind} fresh run");
        return ExitCode::from(3);
    }

    let mut regressed = false;
    let mut compared = 0;
    for f in &fresh {
        let Some(b) = baseline
            .iter()
            .find(|b| b.satellites == f.satellites && b.requests == f.requests)
        else {
            println!(
                "{}: no baseline entry, skipped (fresh {:.1} ms)",
                f.label(),
                f.wall_ms
            );
            continue;
        };
        compared += 1;
        let limit = b.wall_ms * args.tolerance;
        let ratio = if b.wall_ms > 0.0 {
            f.wall_ms / b.wall_ms
        } else {
            f64::INFINITY
        };
        let verdict = if f.wall_ms > limit {
            regressed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "{}: baseline {:.1} ms, fresh {:.1} ms ({ratio:.2}x, limit {:.1}x) {verdict}",
            f.label(),
            b.wall_ms,
            f.wall_ms,
            args.tolerance
        );
    }
    if compared == 0 {
        eprintln!("error: the two files share no constellation size");
        return ExitCode::from(3);
    }
    if regressed {
        eprintln!("perf gate: FAILED (>{}x regression)", args.tolerance);
        ExitCode::from(1)
    } else {
        println!("perf gate: ok ({compared} size(s) compared)");
        ExitCode::SUCCESS
    }
}
