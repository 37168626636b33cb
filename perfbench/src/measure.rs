//! The timed run (`--trace 0`): tracing off, [`THREADS`] worker threads,
//! and every time the median of many repetitions inside one process, at the
//! host's nominal speed, after a discarded warm-up iteration.
//!
//! An iteration sets the workload up [`Workload::setups_per_iteration`]
//! times, each a `setup_s` sample, keeps the last engine and runs the
//! measured phase on it once: one `items_per_s` sample. Alternating the two
//! spreads the samples of both metrics over the whole run. A [`host::Probe`]
//! runs beside the timed iterations, and each sample is scaled by the host's
//! slowdown over its own interval before the medians are taken.

use crate::host::{self, median, Timed};
use crate::trace::Untimed;
use crate::workload::{self, Output, Workload};
use crate::{mib, Args, Metric, RunResult};
use qntn_core::scenario::Qntn;
use qntn_net::SweepEngine;
use qntn_orbit::EphemerisSample;
use qntn_serve::RawRequest;
use std::time::Instant;

/// Worker threads of a timed run: the core count of the 2-vCPU machine the
/// benchmark was tuned on, pinned so that runs elsewhere stay comparable.
pub const THREADS: usize = 2;

/// Fewest timed iterations, however long they take.
const MIN_ITERATIONS: usize = 5;

pub fn run(args: &Args) -> Result<RunResult, String> {
    std::env::set_var("RAYON_NUM_THREADS", THREADS.to_string());
    let (w, seed) = (args.workload, args.seed);
    let scenario = Qntn::standard();
    let mut tally = Tally::default();
    // The warm-up iteration: one setup and one measured phase, timings
    // discarded. The input comes from the seed before it starts, and the
    // memory peak is taken after it, before repeated setups can fragment
    // the heap: what one run of the workload needs.
    let (_, warm_up) = with_setup(w, &scenario, seed, |engine| {
        let stream = w.generate(engine.sim(), seed);
        let out = workload::run_once(w, engine, &stream, seed, &mut Untimed)?;
        tally.absorb(w, seed, &out);
        let windows = engine.windows();
        let sizes = (
            workload::ephemeris_samples(engine.sim()),
            windows.satellites() * windows.steps(),
        );
        Ok::<_, String>((stream, sizes))
    });
    let (stream, (samples, masks)) = warm_up?;
    let peak_rss_mb = peak_rss_mib()?;

    let (mut setups, mut phases) = (Vec::new(), Vec::new());
    let probe = host::Probe::start();
    let start = Instant::now();
    while phases.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() < args.seconds {
        iterate(
            w,
            &scenario,
            &stream,
            seed,
            &mut tally,
            &mut setups,
            &mut phases,
        )?;
    }
    let probes = probe.finish()?;
    let mut setup_s = setups
        .iter()
        .map(|&t| probes.at_nominal(t))
        .collect::<Result<Vec<f64>, String>>()?;
    let mut rates = phases
        .iter()
        .map(|&(t, items)| Ok(items as f64 / probes.at_nominal(t)?))
        .collect::<Result<Vec<f64>, String>>()?;
    let mut slowdowns = setups
        .iter()
        .chain(phases.iter().map(|(t, _)| t))
        .map(|&t| probes.slowdown(t))
        .collect::<Result<Vec<f64>, String>>()?;

    println!(
        "{}: {}; {} setups and {} measured phases after a warm-up iteration",
        w.name(),
        tally.headline,
        setup_s.len(),
        rates.len()
    );
    println!(
        "as timed: setup_s {:.4?}; items_per_s {:.1?}",
        setups.iter().map(|t| t.secs).collect::<Vec<_>>(),
        phases
            .iter()
            .map(|&(t, items)| items as f64 / t.secs)
            .collect::<Vec<_>>()
    );
    println!("at nominal host speed: setup_s {setup_s:.4?}; items_per_s {rates:.1?}");
    println!(
        "host slowdown per sample: median {:.3}, range {:.3}..{:.3}",
        median(&mut slowdowns),
        slowdowns[0],
        slowdowns[slowdowns.len() - 1]
    );
    println!(
        "memory: peak_rss {peak_rss_mb:.1} MiB; computed: ephemerides {:.1} MiB ({samples} samples x {} B), \
         contact windows {:.1} MiB ({masks} masks x 8 B), request queue {:.1} MiB, raw stream {:.1} MiB ({} x {} B)",
        mib(samples * size_of::<EphemerisSample>()),
        size_of::<EphemerisSample>(),
        mib(masks * size_of::<u64>()),
        mib(tally.queue_bytes),
        mib(stream.len() * size_of::<RawRequest>()),
        stream.len(),
        size_of::<RawRequest>()
    );
    let correct = tally.problem.is_none();
    if let Some(problem) = &tally.problem {
        eprintln!("perfbench: output check failed: {problem}");
    }
    Ok(RunResult {
        correct,
        attempted: tally.attempted,
        failed: if correct {
            tally.failed
        } else {
            tally.attempted
        },
        metrics: vec![
            Metric::new("setup_s", median(&mut setup_s), "s"),
            Metric::new("items_per_s", median(&mut rates), "items/s"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        ],
    })
}

/// One iteration: its setups go to `setups`, its measured phase and the
/// items it completed to `phases`, and its output is checked into `tally`.
fn iterate(
    w: Workload,
    scenario: &Qntn,
    stream: &[RawRequest],
    seed: u64,
    tally: &mut Tally,
    setups: &mut Vec<Timed>,
    phases: &mut Vec<(Timed, u64)>,
) -> Result<(), String> {
    for _ in 1..w.setups_per_iteration() {
        setups.push(with_setup(w, scenario, seed, |_| ()).0);
    }
    let (setup, (phase, out)) = with_setup(w, scenario, seed, |engine| {
        let start = Instant::now();
        let out = workload::run_once(w, engine, stream, seed, &mut Untimed);
        (Timed::since(start), out)
    });
    setups.push(setup);
    let out = out?;
    tally.absorb(w, seed, &out);
    phases.push((phase, out.items));
    Ok(())
}

/// Build `w`'s ready engine, everything `setup_s` covers, then hand it to
/// `f` untimed. Returns the setup's interval and `f`'s result.
pub fn with_setup<R>(
    w: Workload,
    scenario: &Qntn,
    seed: u64,
    f: impl FnOnce(&SweepEngine<'_>) -> R,
) -> (Timed, R) {
    let start = Instant::now();
    let arch = w.assemble(scenario, seed, &mut Untimed);
    let engine = workload::engine(w, arch.sim(), &mut Untimed);
    let setup = Timed::since(start);
    (setup, f(&engine))
}

/// Operations and output checks over every iteration, the warm-up included.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Digest of the first output; every later output must equal it.
    digest: Option<u64>,
    problem: Option<String>,
    headline: String,
    queue_bytes: usize,
}

impl Tally {
    fn absorb(&mut self, w: Workload, seed: u64, out: &Output) {
        self.attempted += out.attempted;
        self.failed += out.failed;
        let first = *self.digest.get_or_insert(out.digest());
        let check = workload::check(w, seed, out).and_then(|()| {
            if out.digest() == first {
                Ok(())
            } else {
                Err("the output changed between repetitions".to_string())
            }
        });
        if let Err(problem) = check {
            self.problem.get_or_insert(problem);
        }
        self.headline.clone_from(&out.headline);
        self.queue_bytes = out.queue_bytes;
    }
}

/// The process's resident-set high-water mark (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// User plus system CPU seconds of the whole process so far.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // After the parenthesised command name, utime and stime are the 12th
    // and 13th fields, in ticks of 1/100 s.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => Ok((user + system) / 100.0),
        _ => Err("unreadable /proc/self/stat".to_string()),
    }
}
