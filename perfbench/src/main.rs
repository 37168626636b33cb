//! `perfbench`: the end-to-end and per-layer benchmark of the QNTN
//! workspace. `README.md` beside this crate describes the workloads, the
//! metrics and how to read them.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_uniform_1m --seed 2024 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` is a timed run ([`measure`]), `--trace 1` the traced run
//! ([`replay`]). Either way the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. A failed
//! output check exits 1, a usage error 2.

mod host;
mod measure;
mod replay;
mod trace;
mod workload;

use std::process::ExitCode;
use workload::Workload;

const USAGE: &str = "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  workloads: sweep_1080 serve_uniform_1m hold_poisson_200k overload_flash_400k
  defaults:  --seed 2024 --seconds 25 --trace 0";

/// The command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Length of a timed run's measured loop; the traced run ignores it.
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(workload::DEFAULT_SEED),
        seconds: seconds.unwrap_or(25.0),
        trace: trace.unwrap_or(false),
    })
}

/// One named measurement.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A run's result: the last line of standard output.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Rust's shortest round-trip form keeps every digit.
                let value = if m.value.is_finite() {
                    m.value.to_string()
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Bytes as MiB.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        replay::run(&args)
    } else {
        measure::run(&args)
    };
    match result {
        Ok(result) => {
            println!("{}", result.to_json());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
