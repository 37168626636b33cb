//! The `BENCH_sweep.json` / `BENCH_serve.json` baseline format, in one
//! place: the typed records `reproduce bench` renders, the reader of the
//! cells `perf_gate` gates, and the gate comparison itself.
//!
//! A sweep file gates the `engine_clean` wall time of every constellation
//! size it holds (the top-level paper entry and each `"scales"` entry) and
//! each `"scales"` entry's `setup`; a serve file gates its `serve` wall
//! time, keyed on satellites × requests. Each gated time is one [`Cell`].
//! The layout is fixed — one key per line, two-space indents, keys in the
//! order below, wall times in milliseconds to one decimal — so committed
//! baselines diff cleanly run over run, and [`read`] relies on it.

use std::path::Path;

/// A fresh wall time fails the gate above `TOLERANCE ×` its baseline. The
/// generous factor is deliberate: CI machines are noisy, shared and
/// heterogeneous, and the gate exists to catch *algorithmic* regressions
/// (an accidental O(N²) rescan, a lost pruning layer), which show up as
/// integer multiples, not percentages.
pub const TOLERANCE: f64 = 2.0;

const SWEEP_DAY: &str = "sweep_day";
const SERVE_DAY: &str = "serve_day";

/// The gated wall-time keys of a file kind; every entry needs the first.
fn stages(kind: &str) -> &'static [&'static str] {
    if kind == SERVE_DAY {
        &["serve"]
    } else {
        &["engine_clean", "setup"]
    }
}

/// `BENCH_sweep.json`: the daily sweep of the bench constellation timed
/// three ways, plus one engine-only entry per `--scale`.
pub struct SweepRecord {
    pub satellites: usize,
    pub steps: usize,
    pub parallel: bool,
    pub engine_clean_ms: f64,
    pub naive_clean_ms: f64,
    pub engine_faulted_ms: f64,
    pub scales: Vec<ScaleRecord>,
}

/// One `"scales"` entry: an engine-only sweep of an N-satellite Walker
/// shell with ISLs off.
pub struct ScaleRecord {
    pub satellites: usize,
    pub setup_ms: f64,
    pub engine_clean_ms: f64,
}

/// `BENCH_serve.json`: one serve day over the bench constellation.
pub struct ServeRecord {
    pub satellites: usize,
    pub steps: usize,
    pub requests: usize,
    pub workload: &'static str,
    pub seed: u64,
    pub parallel: bool,
    pub served_percent: f64,
    pub engine_setup_ms: f64,
    pub generate_ingest_ms: f64,
    pub serve_ms: f64,
}

impl SweepRecord {
    /// The file body, newline-terminated.
    pub fn render(&self) -> String {
        let scales = if self.scales.is_empty() {
            String::from("[]")
        } else {
            let entries: Vec<String> = self
                .scales
                .iter()
                .map(|s| {
                    format!(
                        "    {{\n      \"satellites\": {},\n      \"isl\": false,\n      \"wall_ms\": {{\n        \"setup\": {:.1},\n        \"engine_clean\": {:.1}\n      }}\n    }}",
                        s.satellites, s.setup_ms, s.engine_clean_ms
                    )
                })
                .collect();
            format!("[\n{}\n  ]", entries.join(",\n"))
        };
        format!(
            "{{\n  \"benchmark\": \"{SWEEP_DAY}\",\n  \"satellites\": {},\n  \"steps\": {},\n  \"parallel\": {},\n  \"wall_ms\": {{\n    \"engine_clean\": {:.1},\n    \"naive_clean\": {:.1},\n    \"engine_faulted\": {:.1}\n  }},\n  \"scales\": {scales}\n}}\n",
            self.satellites,
            self.steps,
            self.parallel,
            self.engine_clean_ms,
            self.naive_clean_ms,
            self.engine_faulted_ms
        )
    }
}

impl ServeRecord {
    /// The file body, newline-terminated.
    pub fn render(&self) -> String {
        format!(
            "{{\n  \"benchmark\": \"{SERVE_DAY}\",\n  \"satellites\": {},\n  \"steps\": {},\n  \"requests\": {},\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"parallel\": {},\n  \"served_percent\": {:.4},\n  \"wall_ms\": {{\n    \"engine_setup\": {:.1},\n    \"generate_ingest\": {:.1},\n    \"serve\": {:.1}\n  }}\n}}\n",
            self.satellites,
            self.steps,
            self.requests,
            self.workload,
            self.seed,
            self.parallel,
            self.served_percent,
            self.engine_setup_ms,
            self.generate_ingest_ms,
            self.serve_ms
        )
    }
}

/// One gated wall time, keyed on its entry's `satellites` (and, in a
/// serve file, `requests`) and on its stage: the wall-time key it was
/// read from.
#[derive(Debug, PartialEq)]
pub struct Cell {
    pub satellites: u64,
    pub requests: Option<u64>,
    pub stage: &'static str,
    pub wall_ms: f64,
}

impl Cell {
    fn label(&self) -> String {
        match self.requests {
            None => format!("{:>6} sats {}", self.satellites, self.stage),
            Some(r) => format!("{:>6} sats x {r} req {}", self.satellites, self.stage),
        }
    }
}

/// The gated cells of one baseline file, tagged with its `"benchmark"`
/// kind (`sweep_day` or `serve_day`).
pub struct Baseline {
    pub kind: &'static str,
    pub cells: Vec<Cell>,
}

/// Read a baseline file's gated cells.
pub fn load(path: &Path) -> Result<Baseline, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    read(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One entry as [`read`] collects it: its satellites, its requests, and
/// its gated (stage, wall time)s.
type Entry = (u64, Option<u64>, Vec<(&'static str, f64)>);

/// Read the gated cells back out of a baseline file in the layout the
/// renderers write: one key per line, each entry opened by its
/// `"satellites"`. An entry without its `engine_clean` (or `serve` and
/// `requests`), or with a gated time twice, is an error.
pub fn read(text: &str) -> Result<Baseline, String> {
    let mut kind = None;
    let mut entries: Vec<Entry> = Vec::new();
    for line in text.lines() {
        let Some((key, value)) = line.trim().trim_end_matches(',').split_once(": ") else {
            continue;
        };
        let key = key.trim_matches('"');
        let Some(kind) = kind else {
            if key == "benchmark" {
                kind = [SWEEP_DAY, SERVE_DAY]
                    .into_iter()
                    .find(|k| value.trim_matches('"') == *k);
            }
            continue;
        };
        let outside = || format!("{key} outside an entry");
        if key == "satellites" {
            entries.push((number(key, value)?, None, Vec::new()));
        } else if key == "requests" && kind == SERVE_DAY {
            entries.last_mut().ok_or_else(outside)?.1 = Some(number(key, value)?);
        } else if let Some(&stage) = stages(kind).iter().find(|&&s| s == key) {
            let times = &mut entries.last_mut().ok_or_else(outside)?.2;
            if times.iter().any(|&(s, _)| s == stage) {
                return Err(format!("{key} twice in one entry"));
            }
            times.push((stage, number(key, value)?));
        }
    }
    let kind = kind.ok_or("no \"benchmark\" of sweep_day or serve_day")?;
    let complete = |(_, requests, times): &Entry| {
        requests.is_some() == (kind == SERVE_DAY)
            && times.iter().any(|&(s, _)| s == stages(kind)[0])
    };
    if entries.is_empty() || !entries.iter().all(complete) {
        return Err(format!("a {kind} entry lacks its gated fields"));
    }
    let cells = entries
        .into_iter()
        .flat_map(|(satellites, requests, times)| {
            times.into_iter().map(move |(stage, wall_ms)| Cell {
                satellites,
                requests,
                stage,
                wall_ms,
            })
        })
        .collect();
    Ok(Baseline { kind, cells })
}

fn number<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad {key} value `{value}`"))
}

/// The gate's verdict: one report line per fresh cell, how many cells had
/// a baseline to compare against, and whether any of them regressed.
pub struct Gate {
    pub lines: Vec<String>,
    pub compared: usize,
    pub regressed: bool,
}

/// Compare every fresh cell against the baseline cell with the same size
/// and stage. A cell present only in the fresh file is reported and
/// skipped, never failed, so adding a `--scale` cannot break the gate
/// before a baseline exists. Comparing a sweep file against a serve file
/// is an error: the timings measure different work.
pub fn gate(baseline: &Baseline, fresh: &Baseline) -> Result<Gate, String> {
    if baseline.kind != fresh.kind {
        return Err(format!(
            "cannot compare a {} baseline against a {} fresh run",
            baseline.kind, fresh.kind
        ));
    }
    let mut gate = Gate {
        lines: Vec::new(),
        compared: 0,
        regressed: false,
    };
    for f in &fresh.cells {
        let Some(b) = baseline
            .cells
            .iter()
            .find(|b| (b.satellites, b.requests, b.stage) == (f.satellites, f.requests, f.stage))
        else {
            gate.lines.push(format!(
                "{}: no baseline entry, skipped (fresh {:.1} ms)",
                f.label(),
                f.wall_ms
            ));
            continue;
        };
        gate.compared += 1;
        let ratio = if b.wall_ms > 0.0 {
            f.wall_ms / b.wall_ms
        } else {
            f64::INFINITY
        };
        let regressed = f.wall_ms > b.wall_ms * TOLERANCE;
        gate.regressed |= regressed;
        gate.lines.push(format!(
            "{}: baseline {:.1} ms, fresh {:.1} ms ({ratio:.2}x, limit {TOLERANCE:.1}x) {}",
            f.label(),
            b.wall_ms,
            f.wall_ms,
            if regressed { "REGRESSED" } else { "ok" }
        ));
    }
    Ok(gate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(satellites: u64, requests: Option<u64>, stage: &'static str, wall_ms: f64) -> Cell {
        Cell {
            satellites,
            requests,
            stage,
            wall_ms,
        }
    }

    #[test]
    fn rendered_and_committed_baselines_read_back_as_their_gated_cells() {
        let scale = ScaleRecord {
            satellites: 1080,
            setup_ms: 1267.0,
            engine_clean_ms: 1220.44,
        };
        let sweep = SweepRecord {
            satellites: 108,
            steps: 2880,
            parallel: true,
            engine_clean_ms: 258.94,
            naive_clean_ms: 1825.9,
            engine_faulted_ms: 396.9,
            scales: vec![scale],
        };
        let sweep = read(&sweep.render()).unwrap();
        assert_eq!(sweep.kind, "sweep_day");
        assert_eq!(
            sweep.cells,
            [
                cell(108, None, "engine_clean", 258.9),
                cell(1080, None, "setup", 1267.0),
                cell(1080, None, "engine_clean", 1220.4)
            ]
        );
        let serve = ServeRecord {
            satellites: 12,
            steps: 2880,
            requests: 5000,
            workload: "uniform",
            seed: 2024,
            parallel: false,
            served_percent: 17.02,
            engine_setup_ms: 8.5,
            generate_ingest_ms: 0.8,
            serve_ms: 146.64,
        };
        let serve = read(&serve.render()).unwrap();
        assert_eq!(serve.kind, "serve_day");
        assert_eq!(serve.cells, [cell(12, Some(5000), "serve", 146.6)]);

        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let sweep = load(&root.join("BENCH_sweep.json")).unwrap();
        let keys: Vec<(u64, &str)> = sweep
            .cells
            .iter()
            .map(|c| (c.satellites, c.stage))
            .collect();
        assert_eq!(
            (sweep.kind, keys),
            (
                "sweep_day",
                vec![
                    (108, "engine_clean"),
                    (1080, "setup"),
                    (1080, "engine_clean")
                ]
            )
        );
        let serve = load(&root.join("BENCH_serve.json")).unwrap();
        assert_eq!(serve.kind, "serve_day");
        assert_eq!(serve.cells[0].requests, Some(1_000_000));
    }

    #[test]
    fn malformed_files_are_errors_not_panics() {
        let sweep = "\"benchmark\": \"sweep_day\"\n";
        let serve = "\"benchmark\": \"serve_day\"\n";
        for text in [
            String::new(),
            sweep.to_string(),
            "\"benchmark\": \"other_day\"\n\"satellites\": 1\n\"engine_clean\": 1".into(),
            format!("{sweep}\"satellites\": 1.5\n\"engine_clean\": 1"),
            format!("{sweep}\"engine_clean\": 1\n\"satellites\": 1"),
            format!("{sweep}\"satellites\": 1\n\"engine_clean\": 1\n\"engine_clean\": 2"),
            format!("{sweep}\"satellites\": 1\n\"satellites\": 2\n\"engine_clean\": 1"),
            format!("{sweep}\"satellites\": 1\n\"setup\": 1"),
            format!("{sweep}\"satellites\": 1\n\"setup\": 1\n\"setup\": 1\n\"engine_clean\": 1"),
            format!("{serve}\"satellites\": 1\n\"serve\": 1"),
        ] {
            assert!(read(&text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn gate_skips_new_sizes_and_fails_only_above_the_tolerance() {
        let sweep = |cells| Baseline {
            kind: SWEEP_DAY,
            cells,
        };
        let base = sweep(vec![
            cell(108, None, "engine_clean", 100.0),
            cell(108, None, "setup", 10.0),
        ]);
        let fresh = sweep(vec![
            cell(108, None, "engine_clean", 200.0),
            cell(108, None, "setup", 20.0),
            cell(16, None, "engine_clean", 5.0),
        ]);
        let ok = gate(&base, &fresh).unwrap();
        assert_eq!(
            ok.lines,
            [
                "   108 sats engine_clean: baseline 100.0 ms, fresh 200.0 ms (2.00x, limit 2.0x) ok",
                "   108 sats setup: baseline 10.0 ms, fresh 20.0 ms (2.00x, limit 2.0x) ok",
                "    16 sats engine_clean: no baseline entry, skipped (fresh 5.0 ms)",
            ]
        );
        assert_eq!((ok.compared, ok.regressed), (2, false));
        let slower = sweep(vec![cell(108, None, "engine_clean", 200.1)]);
        assert!(gate(&base, &slower).unwrap().regressed);
        let slower_setup = sweep(vec![
            cell(108, None, "engine_clean", 100.0),
            cell(108, None, "setup", 20.1),
        ]);
        assert!(gate(&base, &slower_setup).unwrap().regressed);
    }
}
