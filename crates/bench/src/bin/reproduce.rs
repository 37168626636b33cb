//! `reproduce` — regenerate every table and figure of the QNTN paper.
//!
//! ```text
//! reproduce [artifact] [--quick]
//!
//! artifacts:
//!   fig5      transmissivity vs entanglement fidelity curve
//!   fig6      coverage % vs number of satellites (full day)
//!   fig7      served requests % vs number of satellites
//!   fig8      average fidelity vs number of satellites
//!   table1    ground-node coordinates (scenario dump)
//!   table2    the 108 satellite orbital slots
//!   table3    space-ground vs air-ground comparison
//!   ablations routing-metric / elevation / propagation / weather ablations
//!   topology  link maps of both architectures (Figs. 1-4 data)
//!   budgets   representative FSO link budgets
//!   extensions  night-ops / HAP-jitter / congestion / QKD extensions
//!   faults    degradation vs fault intensity (outages, flaps, weather)
//!   sweep     resilient full-day connectivity sweep: checkpoint/resume,
//!             cooperative cancellation, deadlines, panic isolation
//!   serve     batch entanglement-request service: seeded workload ->
//!             validated ingest -> amortized serve over the daily sweep,
//!             under the same resilient runtime contract
//!   bench     time the daily sweep (engine, naive, faulted) and a serve
//!             day; write BENCH_sweep.json and BENCH_serve.json as perf
//!             baselines
//!   export    write CSV/DOT artifacts for every figure into ./out/
//!   all       everything above except sweep, bench and export (default)
//!
//! --quick shrinks the workloads (for smoke tests); the default reproduces
//! the paper's full workload sizes.
//!
//! Every file this binary writes goes through the one atomic
//! write-temp-fsync-rename helper in `qntn-common`, so a crash mid-run
//! never leaves a torn artifact; every failure exits with a distinct code
//! (see `USAGE`) instead of a panic.
//! ```
//!
//! The panic-free bar is enforced mechanically by `qntn-lint`'s
//! `no-panic-bins` rule (`cargo lint`), which covers every workspace
//! binary — it replaced the in-source clippy `unwrap_used`/`expect_used`
//! deny attributes this file used to carry.

use qntn_bench::schema::{ScaleRecord, ServeRecord, SweepRecord};
use qntn_channel::fso::{FsoChannel, FsoGeometry};
use qntn_channel::params::FsoParams;
use qntn_common::{atomic_write, frame, CancelToken, Deadline, QntnError, RunControl};
use qntn_core::architecture::{default_epoch, AirGround, SpaceGround};
use qntn_core::compare::ComparisonReport;
use qntn_core::experiments::faults::FaultExperiment;
use qntn_core::experiments::fidelity::FidelityExperiment;
use qntn_core::experiments::fig5::FidelityCurve;
use qntn_core::experiments::fig6::CoverageSweep;
use qntn_core::experiments::fig7::ServedSeries;
use qntn_core::experiments::fig8::FidelitySeries;
use qntn_core::experiments::overload::OverloadExperiment;
use qntn_core::experiments::paper_constellation_sizes;
use qntn_core::experiments::sweep::{ConstellationSweep, SweepSettings};
use qntn_core::experiments::timeexp::TimeexpExperiment;
use qntn_core::report;
use qntn_core::scenario::Qntn;
use qntn_net::faults::FaultModel;
use qntn_net::requests::RetryPolicy;
use qntn_net::runtime::{run_steps, PanicPolicy, RunPolicy, RunReport};
use qntn_net::{QuantumNetworkSim, SimConfig, SweepEngine};
use qntn_orbit::ephemeris::{PAPER_DURATION_S, PAPER_STEP_S};
use qntn_orbit::walker::paper_slots;
use qntn_orbit::{scaled_shell, Ephemeris, PerturbationModel, Propagator};
use qntn_routing::RouteMetric;
use qntn_serve::{generate, ingest, report_from_run, serve_resilient, WorkloadKind};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

const USAGE: &str = "\
reproduce [artifact] [--quick]

artifacts:
  fig5        transmissivity vs entanglement fidelity curve
  fig6        coverage % vs number of satellites (full day)
  fig7        served requests % vs number of satellites
  fig8        average fidelity vs number of satellites
  table1      ground-node coordinates (scenario dump)
  table2      the 108 satellite orbital slots
  table3      space-ground vs air-ground comparison
  ablations   routing metric (A1), elevation mode (A2), propagation (A3)
              and weather ablations at fixed small sizes
  topology    link maps of both architectures (Figs. 1-4 data)
  budgets     representative FSO link budgets
  extensions  night-ops / jitter / congestion / QKD / survivability /
              demand / heralded / sensitivity extensions
  faults      degradation vs fault intensity (outages, flaps, weather;
              seeded and deterministic, with retry-with-backoff service)
  timeexp     store-and-forward serving vs the memoryless baseline: the
              same seeded workload served per-step and over time-expanded
              graphs at a ladder of quantum-memory horizons; writes
              out/timeexp.json atomically (--out to override)
  overload    overload-control surface: flash-crowd loads x fault
              intensities served under capacity admission with retry
              budgets, load shedding and the degradation ladder; writes
              out/overload.json atomically (--out to override)
  sweep       resilient full-day connectivity sweep: checkpointed,
              resumable, Ctrl-C-safe, panic-isolated; writes the per-step
              flags CSV atomically
  serve       batch entanglement-request service: generate a seeded
              workload, ingest it through the validated request boundary,
              serve it over the daily sweep under the resilient runtime;
              writes only the SLO report, atomically
  bench       wall-time the 108-satellite daily sweep three ways (engine,
              naive, engine+faults) and a serve day of 1M uniform requests
              over the same constellation (12 sats x 5000 requests with
              --quick); write BENCH_sweep.json and BENCH_serve.json
  export      write CSV/DOT artifacts for every figure into ./out/
  all         everything except sweep, bench and export (default)

flags:
  --quick       reduced workloads (smoke test); default is the paper's sizes
  --no-parallel run every stage on one thread, as RAYON_NUM_THREADS=1
                does; results are bit-identical
  --help        this text

bench flags:
  --scale N     additionally wall-time an engine-only daily sweep of an
                N-satellite Walker shell (N >= 1; repeatable). Each run
                appends a per-scale entry to the scales array of
                BENCH_sweep.json; ISLs are disabled at scale so the timing
                isolates the ground-visibility sweep machinery

sweep/serve runtime flags:
  --sats N              constellation size (sweep default 36, 6 with
                        --quick; serve default 108, 12 with --quick)
  --checkpoint PATH     checkpoint frame file; an interrupted run rerun
                        with the same command resumes from it and produces
                        output bit-identical to an uninterrupted run
  --checkpoint-every N  checkpoint cadence in chunks (default 1)
  --chunk-steps N       steps per chunk: the granularity of checkpoints,
                        cancellation and panic isolation (default 64);
                        threads share the run at any chunk size. For
                        serve a step is an arrival group, and the chunk
                        also bounds how many groups share a routing round
  --deadline-s S        wall-clock budget in seconds
  --out PATH            output file (default out/sweep_flags.csv for
                        sweep, out/serve_slo.json for serve)
  --quarantine          on a panicking chunk, quarantine it and complete
                        the healthy chunks (default: fail fast, exit 6)
  --cancel-after-steps N  trip cancellation after N step evaluations
                        (sweep only; crash-injection testing)
  --inject-panic-step N panic while evaluating step N (sweep only; testing)

serve flags:
  --requests N          batch size (default 1000000; 5000 with --quick)
  --workload KIND       uniform | poisson | diurnal | hotspot | flash_crowd
                        (default uniform)
  --seed N              workload generator seed (default 2024)

exit codes:
  0  success
  2  usage error (unknown artifact / flag / bad value)
  3  I/O error
  4  corrupt or mismatched checkpoint
  5  interrupted (cancellation or deadline; progress checkpointed)
  6  sweep chunk panicked under fail-fast
  1  any other error
";

const ARTIFACTS: [&str; 19] = [
    "all",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table1",
    "table2",
    "table3",
    "ablations",
    "topology",
    "budgets",
    "extensions",
    "faults",
    "timeexp",
    "overload",
    "sweep",
    "serve",
    "bench",
    "export",
];

/// Tripped by the SIGINT handler; observed through
/// [`CancelToken::from_static`] so Ctrl-C becomes a cooperative stop with
/// a checkpoint instead of a mid-write kill.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigint_handler() {
    extern "C" fn on_sigint(_signum: i32) {
        // Async-signal-safe: one relaxed-ordering-free atomic store.
        INTERRUPTED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigint_handler() {}

/// Options of the resilient-runtime artifacts (`sweep` and `serve`).
struct SweepOpts {
    sats: Option<usize>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: usize,
    chunk_steps: usize,
    deadline_s: Option<f64>,
    cancel_after_steps: Option<usize>,
    inject_panic_step: Option<usize>,
    quarantine: bool,
    /// Output path; the default depends on the artifact.
    out: Option<PathBuf>,
}

impl Default for SweepOpts {
    fn default() -> Self {
        SweepOpts {
            sats: None,
            checkpoint: None,
            checkpoint_every: 1,
            chunk_steps: 64,
            deadline_s: None,
            cancel_after_steps: None,
            inject_panic_step: None,
            quarantine: false,
            out: None,
        }
    }
}

/// Options specific to the `serve` artifact (which also honours the
/// shared runtime flags in [`SweepOpts`]).
struct ServeOpts {
    requests: Option<usize>,
    workload: WorkloadKind,
    seed: u64,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            requests: None,
            workload: WorkloadKind::Uniform,
            seed: 2024,
        }
    }
}

struct Cli {
    artifact: String,
    quick: bool,
    /// `--no-parallel`: `main` pins the process to one thread before any
    /// stage starts.
    one_thread: bool,
    /// Extra constellation sizes for `bench` (the `--scale` flag, repeatable).
    scales: Vec<usize>,
    sweep: SweepOpts,
    serve: ServeOpts,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        artifact: String::from("all"),
        quick: false,
        one_thread: false,
        scales: Vec::new(),
        sweep: SweepOpts::default(),
        serve: ServeOpts::default(),
    };
    let mut artifact: Option<String> = None;

    fn value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
        *i += 1;
        args.get(*i)
            .map(String::as_str)
            .ok_or_else(|| format!("flag `{flag}` needs a value"))
    }
    fn number<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
        raw.parse()
            .map_err(|_| format!("flag `{flag}`: invalid value `{raw}`"))
    }

    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        match a {
            "--quick" => cli.quick = true,
            "--no-parallel" => cli.one_thread = true,
            "--quarantine" => cli.sweep.quarantine = true,
            "--sats" => cli.sweep.sats = Some(number(value(args, &mut i, a)?, a)?),
            "--scale" => {
                let n: usize = number(value(args, &mut i, a)?, a)?;
                if n == 0 {
                    return Err("flag `--scale`: a constellation needs at least 1 satellite".into());
                }
                cli.scales.push(n);
            }
            "--checkpoint" => cli.sweep.checkpoint = Some(PathBuf::from(value(args, &mut i, a)?)),
            "--checkpoint-every" => {
                cli.sweep.checkpoint_every = number(value(args, &mut i, a)?, a)?
            }
            "--chunk-steps" => cli.sweep.chunk_steps = number(value(args, &mut i, a)?, a)?,
            "--deadline-s" => cli.sweep.deadline_s = Some(number(value(args, &mut i, a)?, a)?),
            "--cancel-after-steps" => {
                cli.sweep.cancel_after_steps = Some(number(value(args, &mut i, a)?, a)?)
            }
            "--inject-panic-step" => {
                cli.sweep.inject_panic_step = Some(number(value(args, &mut i, a)?, a)?)
            }
            "--out" => cli.sweep.out = Some(PathBuf::from(value(args, &mut i, a)?)),
            "--requests" => cli.serve.requests = Some(number(value(args, &mut i, a)?, a)?),
            "--seed" => cli.serve.seed = number(value(args, &mut i, a)?, a)?,
            "--workload" => {
                let raw = value(args, &mut i, a)?;
                cli.serve.workload = WorkloadKind::parse(raw).ok_or_else(|| {
                    format!("flag `--workload`: unknown kind `{raw}` (uniform | poisson | diurnal | hotspot | flash_crowd)")
                })?;
            }
            _ if a.starts_with("--") => return Err(format!("unknown flag `{a}`")),
            _ => {
                if artifact.is_some() {
                    return Err(format!("unexpected argument `{a}`"));
                }
                artifact = Some(a.to_string());
            }
        }
        i += 1;
    }
    if let Some(name) = artifact {
        if !ARTIFACTS.contains(&name.as_str()) {
            return Err(format!("unknown artifact `{name}`"));
        }
        cli.artifact = name;
    }
    Ok(cli)
}

/// Why a successful process run still didn't finish its work.
enum Exit {
    Success,
    /// Cancelled or deadline-expired: progress is checkpointed (when a
    /// checkpoint path was given) and the partial state is well-formed.
    Interrupted,
}

fn exit_code(err: &QntnError) -> i32 {
    match err {
        QntnError::Io { .. } => 3,
        QntnError::CorruptFrame { .. } | QntnError::CheckpointMismatch { .. } => 4,
        QntnError::ChunkPanic { .. } => 6,
        _ => 1,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return;
    }
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}\n");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    if cli.one_thread {
        // Every parallel stage reads the thread count from the environment
        // when it starts, and no thread exists yet to race this write.
        std::env::set_var("RAYON_NUM_THREADS", "1");
    }
    install_sigint_handler();
    match run(&cli) {
        Ok(Exit::Success) => {}
        Ok(Exit::Interrupted) => std::process::exit(5),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(exit_code(&e));
        }
    }
}

fn run(cli: &Cli) -> Result<Exit, QntnError> {
    let scenario = Qntn::standard();
    let config = SimConfig::default();
    let (artifact, quick) = (cli.artifact.as_str(), cli.quick);

    let wants = |name: &str| artifact == "all" || artifact == name;

    if wants("table1") {
        table1(&scenario);
    }
    if wants("table2") {
        table2();
    }
    if wants("fig5") {
        fig5()?;
    }
    if wants("budgets") {
        budgets();
    }
    if wants("topology") {
        topology(&scenario, &config);
    }
    if wants("fig6") {
        fig6(&scenario, config, quick);
    }
    if wants("fig7") || wants("fig8") {
        fig78(&scenario, config, quick, artifact);
    }
    if wants("table3") {
        table3(&scenario, config, quick);
    }
    if wants("ablations") {
        ablations(&scenario, config);
    }
    if wants("extensions") {
        extensions(&scenario, config, quick);
    }
    if wants("faults") {
        faults(&scenario, config, quick);
    }
    if wants("timeexp") {
        timeexp(&scenario, config, cli)?;
    }
    if wants("overload") {
        overload(&scenario, config, cli)?;
    }
    if artifact == "sweep" {
        return sweep(&scenario, config, cli);
    }
    if artifact == "serve" {
        return serve(&scenario, config, cli);
    }
    if artifact == "bench" {
        bench_sweep(&scenario, config, quick, &cli.scales)?;
    }
    if artifact == "export" {
        export(&scenario, config, quick)?;
    }
    Ok(Exit::Success)
}

/// The `sweep` artifact: the full-day connectivity sweep under the
/// resilient runtime. Checkpointed and resumable (interrupted-then-resumed
/// output is bit-identical to an uninterrupted run), cooperatively
/// cancellable (Ctrl-C / `--deadline-s`), panic-isolated per chunk, and
/// every byte of output written atomically.
fn sweep(scenario: &Qntn, config: SimConfig, cli: &Cli) -> Result<Exit, QntnError> {
    let o = &cli.sweep;
    let n_sats = o.sats.unwrap_or(if cli.quick { 6 } else { 36 });
    let arch = SpaceGround::new(scenario, n_sats, config, PerturbationModel::TwoBody);
    let sim = arch.sim();
    println!(
        "== SWEEP: {n_sats}-satellite resilient daily sweep ({} steps, parallel: {}) ==",
        sim.steps(),
        SweepEngine::default_workers() > 1
    );

    let rt = Runtime::new(o);
    let Some(engine) = rt.engine(sim) else {
        return Ok(Exit::Interrupted);
    };

    // One shared token drives the run; the SIGINT static and the
    // crash-injection counter both bridge into it from the eval closure.
    let run_token = CancelToken::new();
    let policy = rt.policy(run_token.clone());

    // Everything the per-step outputs depend on; a checkpoint from any
    // other configuration is refused, not resumed.
    let fingerprint = frame::fingerprint(&[
        n_sats as u64,
        sim.steps() as u64,
        config.threshold.to_bits(),
    ]);
    let steps: Vec<usize> = (0..sim.steps()).collect();
    let evals = AtomicUsize::new(0);
    let report = run_steps(&engine, &steps, fingerprint, &policy, |scratch, step| {
        if o.inject_panic_step == Some(step) {
            // qntn-lint: allow(no-panic-bins) -- the --inject-panic-step crash-injection knob panics by design
            panic!("injected panic at step {step}");
        }
        if rt.sigint.is_cancelled() {
            run_token.cancel();
        }
        if let Some(n) = o.cancel_after_steps {
            if evals.fetch_add(1, Ordering::SeqCst) + 1 >= n {
                run_token.cancel();
            }
        }
        engine.active_graph_into(step, scratch);
        engine.sim().lans_interconnected(&scratch.active)
    })?;

    if rt.interrupted(&report, "step", "step") {
        return Ok(Exit::Interrupted);
    }

    let out = o
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("out/sweep_flags.csv"));
    ensure_parent_dir(&out)?;
    let mut csv = String::from("step,connected\n");
    for (step, slot) in report.outputs.iter().enumerate() {
        match slot {
            Some(connected) => {
                csv.push_str(&format!("{step},{}\n", u8::from(*connected)));
            }
            // Quarantined steps have no value; NA keeps the row count
            // stable so downstream diffs stay aligned.
            None => csv.push_str(&format!("{step},NA\n")),
        }
    }
    atomic_write(&out, csv.as_bytes())?;
    println!("wrote {}", out.display());

    let total = report.outputs.len();
    let connected = report.outputs.iter().flatten().filter(|&&c| c).count();
    println!(
        "coverage: {connected}/{total} steps connected ({:.2}%)",
        100.0 * connected as f64 / total as f64
    );
    Ok(rt.finish())
}

/// The resilient-runtime plumbing `sweep` and `serve` share: the SIGINT
/// token, the `--deadline-s` budget (running from construction), the
/// window precompute under both, the run policy of the runtime flags,
/// and the reporting of how a run ended.
struct Runtime<'o> {
    opts: &'o SweepOpts,
    sigint: CancelToken,
    /// No cancel token yet; the deadline, if one was given.
    budget: RunControl,
}

impl<'o> Runtime<'o> {
    fn new(opts: &'o SweepOpts) -> Self {
        let budget = match opts.deadline_s {
            Some(s) => {
                RunControl::unlimited().with_deadline(Deadline::after(Duration::from_secs_f64(s)))
            }
            None => RunControl::unlimited(),
        };
        Runtime {
            opts,
            sigint: CancelToken::from_static(&INTERRUPTED),
            budget,
        }
    }

    /// The window precompute is the one setup phase long enough to honour
    /// the budget; a stop here has no partial result worth keeping, so it
    /// is reported and `None` returned.
    fn engine<'s>(&self, sim: &'s QuantumNetworkSim) -> Option<SweepEngine<'s>> {
        let control = self.budget.clone().with_cancel(self.sigint.clone());
        match SweepEngine::try_new(sim, &control) {
            Ok(engine) => Some(engine),
            Err(cause) => {
                println!("interrupted during window precompute ({cause}); nothing written");
                None
            }
        }
    }

    /// The chunking, checkpoint and panic policy of the runtime flags,
    /// stopping when `cancel` trips or the deadline passes.
    fn policy(&self, cancel: CancelToken) -> RunPolicy {
        let o = self.opts;
        let policy = RunPolicy::default()
            .with_chunk_steps(o.chunk_steps)
            .with_checkpoint_every(o.checkpoint_every)
            .with_control(self.budget.clone().with_cancel(cancel))
            .with_panic_policy(if o.quarantine {
                PanicPolicy::Quarantine
            } else {
                PanicPolicy::FailFast
            });
        match &o.checkpoint {
            Some(path) => policy.with_checkpoint(path),
            None => policy,
        }
    }

    /// Print a resume, the interruption (and where its progress went) and
    /// any quarantined chunks of a run over `unit`s (`short` in the resume
    /// hint). Returns whether the run stopped early.
    fn interrupted<T>(&self, report: &RunReport<T>, unit: &str, short: &str) -> bool {
        let (total, done) = (report.outputs.len(), report.completed);
        if report.resumed_from > 0 {
            println!(
                "resumed from checkpoint at {unit} {}/{total}",
                report.resumed_from
            );
        }
        if let Some(cause) = report.stopped {
            let at = format!("interrupted ({cause}) at {unit} {done}/{total}");
            match &self.opts.checkpoint {
                Some(path) => {
                    println!("{at}; progress checkpointed to {}", path.display());
                    println!("resume: rerun the same command to continue from {short} {done}");
                }
                None => println!("{at}; no --checkpoint, progress discarded"),
            }
            return true;
        }
        for p in &report.panics {
            eprintln!("quarantined: {}", p.to_error());
        }
        false
    }

    /// A completed run's checkpoint is spent: remove it.
    fn finish(&self) -> Exit {
        if let Some(path) = &self.opts.checkpoint {
            remove_checkpoint(path);
        }
        Exit::Success
    }
}

/// Delete a completed run's checkpoint, if one is left, and say whether it
/// went. A failed removal is a warning on stderr with the path and OS
/// error, not a failed run: the artifact is already written atomically.
/// Returns whether the checkpoint was removed.
fn remove_checkpoint(path: &Path) -> bool {
    if !path.exists() {
        return false;
    }
    let removed = std::fs::remove_file(path);
    match &removed {
        Ok(()) => println!("run complete; checkpoint {} removed", path.display()),
        Err(e) => eprintln!(
            "warning: run complete, but checkpoint {} was not removed: {e}",
            path.display()
        ),
    }
    removed.is_ok()
}

/// Wait percentiles are `None` when nothing was served (distinguishing
/// "no data" from a genuine 0-step wait).
fn fmt_wait(v: Option<u64>) -> String {
    match v {
        Some(w) => w.to_string(),
        None => "n/a".to_string(),
    }
}

fn ensure_parent_dir(path: &Path) -> Result<(), QntnError> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| QntnError::io("create_dir", dir, &e))?;
        }
    }
    Ok(())
}

/// The `serve` artifact: the batch entanglement-request service. A seeded
/// workload is generated, pushed through the validated ingest boundary
/// (per-request rejection, never a panic), then served over the daily
/// sweep with amortized routing — each work unit of arrival groups walked
/// step-major, one routing round per step and one SSSP per distinct
/// source in it — under the same resilient runtime contract as `sweep`:
/// checkpointed per chunk of arrival groups, cooperatively cancellable,
/// panic-isolated per work unit, with every artifact byte written
/// atomically. The run ends with the SLO report JSON — its only file
/// (wall-time baselines are `bench`'s job).
fn serve(scenario: &Qntn, config: SimConfig, cli: &Cli) -> Result<Exit, QntnError> {
    let o = &cli.sweep;
    let s = &cli.serve;
    let n_sats = o.sats.unwrap_or(if cli.quick { 12 } else { 108 });
    let n_requests = s
        .requests
        .unwrap_or(if cli.quick { 5_000 } else { 1_000_000 });
    let kind = s.workload;
    let arch = SpaceGround::new(scenario, n_sats, config, PerturbationModel::TwoBody);
    let sim = arch.sim();
    println!(
        "== SERVE: {n_requests} {} requests over the {n_sats}-satellite day ({} steps, parallel: {}) ==",
        kind.name(),
        sim.steps(),
        SweepEngine::default_workers() > 1
    );

    let rt = Runtime::new(o);
    let Some(engine) = rt.engine(sim) else {
        return Ok(Exit::Interrupted);
    };

    let stream = generate(sim, kind, n_requests, s.seed);
    let (queue, rejected) = ingest(sim.hosts().len(), sim.steps(), &stream);
    drop(stream);
    println!(
        "ingest: {} accepted, {} rejected, {} arrival groups",
        queue.len(),
        rejected.len(),
        queue.groups().len()
    );

    let policy = RetryPolicy::standard();
    let metric = RouteMetric::PaperInverseEta;
    // Everything the per-group aggregates depend on; a checkpoint from
    // any other serve configuration is refused, not resumed.
    const SERVE_TAG: u64 = 0x5e7e;
    let fingerprint = frame::fingerprint(&[
        SERVE_TAG,
        n_sats as u64,
        sim.steps() as u64,
        config.threshold.to_bits(),
        n_requests as u64,
        s.seed,
        kind.id(),
        policy.max_attempts as u64,
        policy.backoff_steps as u64,
        policy.deadline_steps as u64,
    ]);

    let run_policy = rt.policy(rt.sigint.clone());
    let run = serve_resilient(&engine, &queue, policy, metric, fingerprint, &run_policy)?;

    if rt.interrupted(&run, "arrival group", "group") {
        return Ok(Exit::Interrupted);
    }

    let report = report_from_run(&run, rejected.len() as u64);
    println!(
        "served {:.2}% of {} attempted ({:.2}% first try, {:.2}% retry-rescued, {:.2}% expired)",
        report.served_percent(),
        report.attempted,
        report.first_try_percent(),
        report.rescued_percent(),
        report.expired_percent()
    );
    println!(
        "wait: p50 {} steps, p95 {} steps; mean fidelity {:.4}, mean attempts {:.2}",
        fmt_wait(report.p50_wait_steps),
        fmt_wait(report.p95_wait_steps),
        report.mean_fidelity,
        report.mean_attempts
    );
    for (c, class) in report.classes.iter().enumerate() {
        println!(
            "class {c}: {:>7} attempted, {:>6.2}% served, mean fidelity {:.4}",
            class.attempted, class.served_percent, class.mean_fidelity
        );
    }

    let out = o
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("out/serve_slo.json"));
    ensure_parent_dir(&out)?;
    atomic_write(&out, report.to_json().as_bytes())?;
    println!("wrote {}", out.display());
    Ok(rt.finish())
}

/// The `bench` artifact: wall-time the full-day connectivity sweep on the
/// paper's headline constellation three ways — the window-pruned engine,
/// the naive per-step evaluator, and the engine under a standard
/// intensity-2.0 fault mask — and record the timings in `BENCH_sweep.json`
/// so future changes have a baseline to regress against. The engine and
/// naive flag vectors are checked equal before anything is written
/// (timing a wrong answer would be worthless); a mismatch is an error.
/// A serve day over the same constellation then lands in
/// `BENCH_serve.json` (see [`bench_serve`]).
///
/// Each `--scale N` additionally times an engine-only sweep of an
/// N-satellite Walker shell (the mega-constellation path: spatial window
/// pruning, incremental topology, batched η). ISLs are disabled there —
/// the O(N²) ISL pair loop is a different workload and would swamp the
/// ground-visibility machinery being measured — and the naive oracle is
/// skipped (at 1000+ satellites it takes minutes; the bit-identity of
/// engine vs naive is pinned by `tests/pipeline_goldens.rs` instead).
/// The per-scale timings land in the `"scales"` array of the JSON, which
/// `perf_gate` compares run-over-run in CI.
fn bench_sweep(
    scenario: &Qntn,
    config: SimConfig,
    quick: bool,
    scales: &[usize],
) -> Result<(), QntnError> {
    use std::sync::Arc;
    use std::time::Instant;

    let n_sats = if quick { 12 } else { 108 };
    let arch = SpaceGround::new(scenario, n_sats, config, PerturbationModel::TwoBody);
    let sim = arch.sim();
    println!(
        "== BENCH: {n_sats}-satellite daily sweep ({} steps, parallel: {}) ==",
        sim.steps(),
        SweepEngine::default_workers() > 1
    );

    let t = Instant::now();
    let engine = SweepEngine::new(sim);
    let engine_flags = engine.connectivity_flags();
    let engine_clean_ms = t.elapsed().as_secs_f64() * 1e3;
    println!("engine_clean    {engine_clean_ms:>10.1} ms");

    let t = Instant::now();
    let naive_flags: Vec<bool> = (0..sim.steps())
        .map(|step| sim.lans_interconnected(&sim.active_graph_at(step)))
        .collect();
    let naive_clean_ms = t.elapsed().as_secs_f64() * 1e3;
    println!("naive_clean     {naive_clean_ms:>10.1} ms");
    if engine_flags != naive_flags {
        return Err(QntnError::Other(
            "engine and naive sweeps disagree; refusing to record timings".into(),
        ));
    }

    let t = Instant::now();
    let faults = Arc::new(FaultModel::standard(42).with_intensity(2.0).compile(sim));
    let faulted = SweepEngine::new(sim).with_faults(faults);
    let _ = faulted.connectivity_flags();
    let engine_faulted_ms = t.elapsed().as_secs_f64() * 1e3;
    println!("engine_faulted  {engine_faulted_ms:>10.1} ms (incl. mask compile)");

    let mut record = SweepRecord {
        satellites: n_sats,
        steps: sim.steps(),
        parallel: engine.workers() > 1,
        engine_clean_ms,
        naive_clean_ms,
        engine_faulted_ms,
        scales: Vec::new(),
    };
    for &n in scales {
        let t = Instant::now();
        let epoch = default_epoch();
        let props: Vec<Propagator> = scaled_shell(n)
            .elements()
            .into_iter()
            .map(|k| Propagator::new(k, epoch, PerturbationModel::TwoBody))
            .collect();
        let ephemerides = Ephemeris::generate_many(&props, epoch, PAPER_STEP_S, PAPER_DURATION_S);
        let shell = SpaceGround::from_ephemerides(
            scenario,
            ephemerides,
            SimConfig {
                enable_isl: false,
                ..config
            },
        );
        let setup_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let engine = SweepEngine::new(shell.sim());
        let flags = engine.connectivity_flags();
        let scale_clean_ms = t.elapsed().as_secs_f64() * 1e3;
        let connected = flags.iter().filter(|&&c| c).count();
        println!(
            "scale {n:>5}     {scale_clean_ms:>10.1} ms engine-only ({setup_ms:.1} ms setup, {connected}/{} steps connected)",
            flags.len()
        );
        record.scales.push(ScaleRecord {
            satellites: n,
            setup_ms,
            engine_clean_ms: scale_clean_ms,
        });
    }
    atomic_write(Path::new("BENCH_sweep.json"), record.render().as_bytes())?;
    println!("wrote BENCH_sweep.json");
    bench_serve(sim, n_sats, quick)
}

/// Wall-time a serve day — 1M uniform requests (5,000 under `--quick`),
/// seed 2024, standard retry policy — through [`serve_resilient`] on the
/// bench constellation, and record it in `BENCH_serve.json`, the baseline
/// `perf_gate` compares per (satellites, requests) cell.
fn bench_serve(sim: &QuantumNetworkSim, n_sats: usize, quick: bool) -> Result<(), QntnError> {
    use std::time::Instant;

    let (n_requests, kind, seed) = (
        if quick { 5_000 } else { 1_000_000 },
        WorkloadKind::Uniform,
        2024,
    );
    let t = Instant::now();
    let engine = SweepEngine::new(sim);
    let setup_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let stream = generate(sim, kind, n_requests, seed);
    let (queue, rejected) = ingest(sim.hosts().len(), sim.steps(), &stream);
    drop(stream);
    let ingest_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let run = serve_resilient(
        &engine,
        &queue,
        RetryPolicy::standard(),
        RouteMetric::PaperInverseEta,
        0,
        &RunPolicy::default(),
    )?;
    let serve_ms = t.elapsed().as_secs_f64() * 1e3;
    let served = report_from_run(&run, rejected.len() as u64).served_percent();
    println!("serve_day       {serve_ms:>10.1} ms ({n_requests} requests, {served:.2}% served)");

    let record = ServeRecord {
        satellites: n_sats,
        steps: sim.steps(),
        requests: n_requests,
        workload: kind.name(),
        seed,
        parallel: engine.workers() > 1,
        served_percent: served,
        engine_setup_ms: setup_ms,
        generate_ingest_ms: ingest_ms,
        serve_ms,
    };
    atomic_write(Path::new("BENCH_serve.json"), record.render().as_bytes())?;
    println!("wrote BENCH_serve.json");
    Ok(())
}

fn export(scenario: &Qntn, config: SimConfig, quick: bool) -> Result<(), QntnError> {
    use qntn_core::report;
    let dir = Path::new("out");
    std::fs::create_dir_all(dir).map_err(|e| QntnError::io("create_dir", dir, &e))?;
    let write = |name: &str, contents: String| -> Result<(), QntnError> {
        let path = dir.join(name);
        atomic_write(&path, contents.as_bytes())?;
        println!("wrote {}", path.display());
        Ok(())
    };

    write("fig5.csv", report::fig5_csv(&FidelityCurve::paper()))?;

    let sizes = if quick {
        vec![6, 36, 108]
    } else {
        paper_constellation_sizes()
    };
    let cov = CoverageSweep::run(scenario, config, &sizes, PerturbationModel::TwoBody);
    write("fig6.csv", report::fig6_csv(&cov))?;

    let settings = if quick {
        SweepSettings {
            sampled_steps: 20,
            requests_per_step: 25,
            ..SweepSettings::paper()
        }
    } else {
        SweepSettings::paper()
    };
    let sweep = ConstellationSweep::run(
        scenario,
        config,
        &sizes,
        settings,
        PerturbationModel::TwoBody,
    );
    write("fig7_fig8.csv", report::sweep_csv(&sweep))?;

    let experiment = if quick {
        FidelityExperiment {
            sampled_steps: 20,
            requests_per_step: 25,
            ..FidelityExperiment::paper()
        }
    } else {
        FidelityExperiment::paper()
    };
    let largest = sizes.last().copied().unwrap_or(108);
    let cmp = ComparisonReport::run(scenario, config, largest, experiment);
    write("table3.txt", report::table3(&cmp))?;

    let air = AirGround::new(scenario, config);
    let g = air.sim().active_graph_at(0);
    write(
        "topology_air_ground.dot",
        report::topology_dot(air.sim(), &g, "QNTN air-ground (t=0)"),
    )?;
    let space = SpaceGround::new(scenario, 36, config, PerturbationModel::TwoBody);
    let g = space.sim().active_graph_at(0);
    write(
        "topology_space_ground_36.dot",
        report::topology_dot(space.sim(), &g, "QNTN space-ground, 36 satellites (t=0)"),
    )?;

    let fault_exp = if quick {
        FaultExperiment::quick()
    } else {
        FaultExperiment::standard()
    };
    let faults = fault_exp.run(scenario, config);
    write("faults.csv", report::faults_csv(&faults))?;

    // One satellite movement sheet, as the paper's STK workflow produced.
    let eph = SpaceGround::ephemerides(1, PerturbationModel::TwoBody);
    write("movement_sheet_sat000.csv", eph[0].to_csv())?;
    Ok(())
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

fn table1(scenario: &Qntn) {
    banner("Table I — ground node coordinates");
    for lan in &scenario.lans {
        println!("{} ({} nodes):", lan.name, lan.nodes.len());
        for (k, n) in lan.nodes.iter().enumerate() {
            println!(
                "  {}-{k}: ({:.5}, {:.5})",
                lan.name,
                n.lat_deg(),
                n.lon_deg()
            );
        }
    }
    println!(
        "HAP: ({:.4}, {:.4}) @ {:.0} km",
        scenario.hap.lat_deg(),
        scenario.hap.lon_deg(),
        scenario.hap.alt_m / 1000.0
    );
}

fn table2() {
    banner("Table II — satellite orbital configurations (RAAN, true anomaly)");
    let slots = paper_slots();
    for (i, s) in slots.iter().enumerate() {
        print!("({:>3.0},{:>3.0}) ", s.raan_deg, s.true_anomaly_deg);
        if (i + 1) % 6 == 0 {
            println!();
        }
    }
    println!("total: {} satellites, a = 6871 km, i = 53 deg", slots.len());
}

fn fig5() -> Result<(), QntnError> {
    banner("Fig. 5 — transmissivity vs entanglement fidelity");
    let curve = FidelityCurve::paper();
    print!("{}", report::fig5_csv(&curve));
    let th = curve
        .threshold_for_fidelity(0.9)
        .ok_or_else(|| QntnError::Other("fig5: no sampled eta reaches F >= 0.9".into()))?;
    println!("# first eta with F >= 0.9: {th:.2} (paper threshold: 0.70)");
    Ok(())
}

fn budgets() {
    banner("Representative FSO link budgets");
    let p = FsoParams::ideal();
    let cases = [
        (
            "satellite zenith (500 km)",
            FsoGeometry::downlink(1.2, 500e3, 1.2, 300.0, 500e3, 90f64.to_radians()),
        ),
        (
            "satellite 45 deg (690 km)",
            FsoGeometry::downlink(1.2, 500e3, 1.2, 300.0, 690e3, 45f64.to_radians()),
        ),
        (
            "satellite 25 deg (1050 km)",
            FsoGeometry::downlink(1.2, 500e3, 1.2, 300.0, 1050e3, 25f64.to_radians()),
        ),
        (
            "satellite 20 deg (1220 km)",
            FsoGeometry::downlink(1.2, 500e3, 1.2, 300.0, 1220e3, 20f64.to_radians()),
        ),
        (
            "HAP->Cookeville (~78 km)",
            FsoGeometry::downlink(0.3, 30e3, 1.2, 300.0, 78e3, 22f64.to_radians()),
        ),
        (
            "ISL in-plane (6871 km)",
            FsoGeometry::downlink(1.2, 500e3, 1.2, 500e3, 6.871e6, 0.0),
        ),
    ];
    for (name, geom) in cases {
        let b = FsoChannel::new(geom, p).budget();
        println!("{name}:\n{b}\n");
    }
}

fn topology(scenario: &Qntn, config: &SimConfig) {
    use qntn_net::Snapshot;
    banner("Topology (Figs. 1-4 data)");
    let air = AirGround::new(scenario, *config);
    println!("air-ground census:");
    print!("{}", Snapshot::take(air.sim(), 0).render());
    let hap = air.hap_node();
    println!(
        "HAP links {} ground nodes (threshold {})\n",
        air.sim().active_graph_at(0).neighbors(hap).len(),
        config.threshold
    );

    let space = SpaceGround::new(scenario, 36, *config, PerturbationModel::TwoBody);
    println!("space-ground (36 sats) census:");
    print!("{}", Snapshot::take(space.sim(), 0).render());
}

fn fig6(scenario: &Qntn, config: SimConfig, quick: bool) {
    banner("Fig. 6 — coverage % vs number of satellites");
    let sizes = if quick {
        vec![6, 36, 108]
    } else {
        paper_constellation_sizes()
    };
    let sweep = CoverageSweep::run(scenario, config, &sizes, PerturbationModel::TwoBody);
    print!("{}", report::fig6_table(&sweep));
    println!(
        "# paper: 108 satellites -> 55.17% coverage; measured: {:.2}%",
        sweep.final_point().coverage_percent
    );
}

fn fig78(scenario: &Qntn, config: SimConfig, quick: bool, artifact: &str) {
    banner("Fig. 7/8 — served requests and fidelity vs number of satellites");
    let sizes = if quick {
        vec![6, 36, 108]
    } else {
        paper_constellation_sizes()
    };
    let settings = if quick {
        SweepSettings {
            sampled_steps: 20,
            requests_per_step: 25,
            ..SweepSettings::paper()
        }
    } else {
        SweepSettings::paper()
    };
    let sweep = ConstellationSweep::run(
        scenario,
        config,
        &sizes,
        settings,
        PerturbationModel::TwoBody,
    );
    print!("{}", report::sweep_table(&sweep));
    let served = ServedSeries::from_sweep(&sweep);
    let fid = FidelitySeries::from_sweep(&sweep);
    if artifact == "fig7" || artifact == "all" {
        if let Some(last) = served.served_percent.last() {
            println!("# paper Fig. 7: 108 satellites -> 57.75% served; measured: {last:.2}%");
        }
    }
    if artifact == "fig8" || artifact == "all" {
        if let (Some(end2end), Some(per_link)) =
            (fid.mean_fidelity.last(), fid.mean_link_fidelity.last())
        {
            println!(
                "# paper Fig. 8: average fidelity 0.96; measured at 108: end-to-end {end2end:.4}, per-link {per_link:.4}"
            );
        }
    }
}

fn extensions(scenario: &Qntn, _config: SimConfig, quick: bool) {
    use qntn_core::experiments::congestion::CongestionSweep;
    use qntn_core::experiments::night::NightOps;
    use qntn_core::experiments::stability::StabilitySweep;
    use qntn_orbit::Twilight;

    banner("Extension: darkness-gated quantum links (night ops)");
    let night = NightOps {
        twilight: Twilight::Astronomical,
        satellites: if quick { 24 } else { 108 },
    }
    .run(scenario, SimConfig::default());
    println!(
        "all-cities-dark fraction (astronomical, July 1): {:.2}%",
        night.dark_percent
    );
    println!(
        "space-ground coverage: nominal {:.2}% -> night-gated {:.2}%",
        night.space_nominal_percent, night.space_night_percent
    );
    println!(
        "air-ground coverage:   nominal 100.00% -> night-gated {:.2}%",
        night.air_night_percent
    );

    banner("Extension: HAP pointing jitter (stability)");
    let experiment = if quick {
        FidelityExperiment {
            sampled_steps: 2,
            requests_per_step: 20,
            ..FidelityExperiment::quick()
        }
    } else {
        FidelityExperiment {
            sampled_steps: 10,
            requests_per_step: 50,
            ..FidelityExperiment::paper()
        }
    };
    let sweep = StabilitySweep::run(
        scenario,
        &StabilitySweep::standard_jitters_urad(),
        experiment,
    );
    println!(
        "{:>12} {:>9} {:>11} {:>9}",
        "jitter_urad", "served_%", "F_end2end", "mean_eta"
    );
    for p in &sweep.points {
        println!(
            "{:>12.1} {:>9.2} {:>11.4} {:>9.4}",
            p.jitter_urad, p.report.served_percent, p.report.mean_fidelity, p.report.mean_eta
        );
    }
    match sweep.tolerable_jitter_urad() {
        Some(j) => println!("# largest jitter still serving 100%: {j:.1} urad"),
        None => println!("# no tested jitter level served 100%"),
    }

    banner("Extension: finite pair rates (congestion)");
    let rates = [0.05, 0.2, 1.0, 5.0, 20.0];
    let sweep = CongestionSweep::run(scenario, &rates, 100, 2024);
    println!("{:>10} {:>9} {:>13}", "rate_hz", "served_%", "congested_%");
    for p in &sweep.points {
        println!(
            "{:>10.2} {:>9.2} {:>13.2}",
            p.attempt_rate_hz, p.served_percent, p.congestion_percent
        );
    }
    println!(
        "# air-ground's 100% headline needs roughly {} pair-attempts/s per link at 100 simultaneous requests",
        sweep.saturation_rate_hz().map_or("> tested".into(), |r| format!("{r:.1}"))
    );

    banner("Extension: QKD-grade service (BBM92 one-way key)");
    use qntn_core::experiments::qkd::QkdExperiment;
    let exp = if quick {
        QkdExperiment {
            sampled_steps: 5,
            requests_per_step: 20,
            ..QkdExperiment::standard()
        }
    } else {
        QkdExperiment::standard()
    };
    let air = AirGround::new(scenario, SimConfig::default());
    let ra = exp.run_air_ground(&air);
    let space = SpaceGround::new(
        scenario,
        if quick { 24 } else { 108 },
        SimConfig::default(),
        PerturbationModel::TwoBody,
    );
    let rs = exp.run_space_ground(&space);
    println!(
        "{:>14} {:>8} {:>8} {:>12} {:>14}",
        "architecture", "served", "w/ key", "key-capable%", "mean key frac"
    );
    for (name, r) in [("space-ground", &rs), ("air-ground", &ra)] {
        println!(
            "{name:>14} {:>8} {:>8} {:>12.2} {:>14.4}",
            r.served,
            r.key_capable,
            r.key_capable_percent(),
            r.mean_key_fraction
        );
    }
    println!("# at the paper's 0.7 threshold, 'entanglement served' is NOT 'QKD served'");

    banner("Extension: purification-rescued QKD");
    use qntn_core::experiments::purified_qkd;
    println!(
        "{:>9} {:>7} {:>10} {:>16} {:>16}",
        "eta_path", "rounds", "key_frac", "raw_pairs/output", "key_bits/raw"
    );
    for (eta, outcome) in purified_qkd::sweep(&[0.55, 0.63, 0.70, 0.80, 0.92], 8) {
        match outcome {
            Some(o) => println!(
                "{eta:>9.2} {:>7} {:>10.4} {:>16.1} {:>16.4}",
                o.rounds, o.key_fraction, o.raw_pairs_per_output, o.key_per_raw_pair
            ),
            None => println!(
                "{eta:>9.2} {:>7} {:>10} {:>16} {:>16}",
                "-", "dead", "-", "-"
            ),
        }
    }
    println!("# BBPSSW+twirl rescues satellite-path key at a multi-pair price");

    banner("Extension: heralded link layer with quantum memories");
    use qntn_net::HeraldedLink;
    // Representative relays: HAP (strong links) vs satellite (threshold-ish).
    let trials = if quick { 300 } else { 2_000 };
    println!(
        "{:>12} {:>7} {:>7} {:>10} {:>12} {:>11} {:>9}",
        "relay", "eta_a", "eta_b", "T1_s", "latency_ms", "F_delivered", "F_ideal"
    );
    for (name, ea, eb, t1) in [
        ("HAP", 0.96, 0.96, 0.05),
        ("HAP", 0.96, 0.96, 0.005),
        ("satellite", 0.75, 0.75, 0.05),
        ("satellite", 0.75, 0.75, 0.005),
    ] {
        let link = HeraldedLink {
            eta_a: ea,
            eta_b: eb,
            attempt_rate_hz: 1000.0,
            memory_t1_s: t1,
        };
        let stats = link.simulate(trials, 2024);
        println!(
            "{name:>12} {ea:>7.2} {eb:>7.2} {t1:>10.3} {:>12.3} {:>11.4} {:>9.4}",
            stats.mean_latency_s * 1000.0,
            stats.mean_fidelity,
            stats.ideal_fidelity
        );
    }
    println!("# the paper's instantaneous-distribution assumption = the T1 -> inf row");

    banner("Extension: survivability (vertex-disjoint inter-city paths)");
    use qntn_core::experiments::survivability::SurvivabilityExperiment;
    let surv = if quick {
        SurvivabilityExperiment {
            sampled_steps: 5,
            pairs_per_step: 10,
            ..SurvivabilityExperiment::standard()
        }
    } else {
        SurvivabilityExperiment::standard()
    };
    let air = AirGround::new(scenario, SimConfig::default());
    let ra = surv.run_air_ground(&air);
    let space = SpaceGround::new(
        scenario,
        if quick { 36 } else { 108 },
        SimConfig::default(),
        PerturbationModel::TwoBody,
    );
    let rs = surv.run_space_ground(&space);
    println!(
        "{:>14} {:>11} {:>11} {:>11} {:>8}",
        "architecture", "connected%", "redundant%", "mean_paths", "max"
    );
    for (name, r) in [("space-ground", &rs), ("air-ground", &ra)] {
        println!(
            "{name:>14} {:>11.2} {:>11.2} {:>11.2} {:>8}",
            r.connected_percent, r.redundant_percent, r.mean_disjoint_paths, r.max_disjoint_paths
        );
    }
    println!("# neither architecture offers platform redundancy: the HAP is a single\n# point of failure by construction, and Walker spacing makes simultaneous\n# double-coverage of one city pair rare even at 108 satellites");

    banner("Extension: demand alignment (business-hours weighting)");
    use qntn_core::experiments::demand;
    let r = demand::analyze(scenario, SimConfig::default(), if quick { 24 } else { 108 });
    println!(
        "space-ground coverage:            {:.2}% plain, {:.2}% demand-weighted",
        r.space_percent, r.space_weighted_percent
    );
    println!(
        "space-ground night-gated:         {:.2}% demand-weighted",
        r.space_night_weighted_percent
    );
    println!(
        "air-ground night-gated:           {:.2}% demand-weighted",
        r.air_night_weighted_percent
    );
    println!("# darkness-gated quantum service is anti-correlated with demand");

    banner("Extension: calibration sensitivity (coverage response)");
    use qntn_core::experiments::sensitivity::SensitivityTable;
    let n = if quick { 24 } else { 108 };
    let table = SensitivityTable::compute(scenario, n, 0.1);
    print!("{}", table.render());
}

fn table3(scenario: &Qntn, config: SimConfig, quick: bool) {
    banner("Table III — architecture comparison");
    let experiment = if quick {
        FidelityExperiment {
            sampled_steps: 20,
            requests_per_step: 25,
            ..FidelityExperiment::paper()
        }
    } else {
        FidelityExperiment::paper()
    };
    let r = ComparisonReport::run(scenario, config, 108, experiment);
    print!("{}", report::table3(&r));
    println!("# paper: space 55.17%/57.75%/0.96, air 100%/100%/0.98");
}

/// The `ablations` artifact: the quality deltas of the design choices
/// DESIGN.md §4 lists as A1-A3, plus weather, at fixed small sizes
/// (`--quick` changes nothing). EXPERIMENTS.md records them.
fn ablations(scenario: &Qntn, config: SimConfig) {
    banner("Ablation A1 — routing metric (36 satellites, 12 steps x 40 requests)");
    let arch = SpaceGround::new(scenario, 36, config, PerturbationModel::TwoBody);
    let engine = SweepEngine::new(arch.sim());
    for metric in [
        RouteMetric::PaperInverseEta,
        RouteMetric::NegLogEta,
        RouteMetric::HopCount,
    ] {
        let r = FidelityExperiment {
            sampled_steps: 12,
            requests_per_step: 40,
            seed: 2024,
            metric,
        }
        .run_on(&engine);
        println!(
            "  {:<24} served {:>5.1}%  F_end2end {:.4}  eta {:.4}  hops {:.2}",
            metric.label(),
            r.served_percent,
            r.mean_fidelity,
            r.mean_eta,
            r.mean_hops
        );
    }

    let coverage_at_12 = |config, model| {
        CoverageSweep::run(scenario, config, &[12], model)
            .final_point()
            .coverage_percent
    };
    banner("Ablation A2 — elevation mode (12 satellites, full-day coverage)");
    let fixed = SimConfig {
        fso: FsoParams::ideal_fixed_elevation(),
        ..config
    };
    for (name, config) in [
        ("geometric", config),
        ("fixed pi/9 (paper's parameter)", fixed),
    ] {
        let coverage = coverage_at_12(config, PerturbationModel::TwoBody);
        println!("  {name:<32} coverage {coverage:>5.2}%");
    }

    banner("Ablation A3 — propagation model (12 satellites, full-day coverage)");
    for (name, model) in [
        ("two-body", PerturbationModel::TwoBody),
        ("J2 secular", PerturbationModel::J2Secular),
    ] {
        let coverage = coverage_at_12(config, model);
        println!("  {name:<12} coverage {coverage:>5.2}%");
    }

    banner("Ablation — weather (air-ground, 6 steps x 25 requests)");
    let experiment = FidelityExperiment {
        sampled_steps: 6,
        requests_per_step: 25,
        ..FidelityExperiment::quick()
    };
    for w in [1.0, 4.0, 16.0] {
        let weather = SimConfig {
            fso: FsoParams::ideal().with_weather(w),
            ..config
        };
        let r = experiment.run_air_ground(&AirGround::new(scenario, weather));
        println!(
            "  weather x{w:<4} served {:>5.1}%  F {:.4}",
            r.served_percent, r.mean_fidelity
        );
    }
}

fn faults(scenario: &Qntn, config: SimConfig, quick: bool) {
    banner("Fault injection — degradation vs intensity (seeded, deterministic)");
    let experiment = if quick {
        FaultExperiment::quick()
    } else {
        FaultExperiment::standard()
    };
    let sweep = experiment.run(scenario, config);
    print!("{}", report::faults_table(&sweep));
    println!("# intensity 0 = the paper's ideal-conditions assumption (bit-identical to table3);");
    println!(
        "# rates at intensity 1: {:.2} sat outages/day, {:.2} ground outages/day, {:.1} weather fronts/day",
        FaultModel::standard(0).sat_outages_per_day,
        FaultModel::standard(0).ground_outages_per_day,
        FaultModel::standard(0).weather_fronts_per_day
    );
}

/// The `timeexp` artifact: the same seeded workload served twice over the
/// identical day — per-step (the paper's simultaneous-links routing) and
/// hold-aware over time-expanded graphs at a ladder of quantum-memory
/// horizons — reporting how served percentage, waits and delivered
/// fidelity trade off. The JSON body is written atomically; horizon 0
/// with zero memory reproduces the baseline bit for bit (the differential
/// contract behind the ladder).
fn timeexp(scenario: &Qntn, config: SimConfig, cli: &Cli) -> Result<(), QntnError> {
    banner("Store-and-forward serving - memory horizons vs the per-step baseline");
    let experiment = if cli.quick {
        TimeexpExperiment::quick()
    } else {
        TimeexpExperiment::standard()
    };
    let sweep = experiment.run(scenario, config);
    print!("{}", report::timeexp_table(&sweep));
    println!(
        "# {} {} requests, fidelity floor {:.2}; rescued_% counts retry- and memory-saved requests",
        experiment.requests,
        experiment.workload.name(),
        experiment.fidelity_floor
    );
    let out = cli
        .sweep
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("out/timeexp.json"));
    ensure_parent_dir(&out)?;
    atomic_write(&out, report::timeexp_json(&sweep).as_bytes())?;
    println!("wrote {}", out.display());
    Ok(())
}

/// The `overload` artifact: the overload-control surface. A flash-crowd
/// workload at a ladder of offered loads is served under capacity
/// admission and the standard overload policy (retry budgets, load
/// shedding, the degradation ladder) against fault masks at a ladder of
/// intensities. The JSON body is written atomically; with the policy
/// disabled every cell reproduces the plain admission serve bit for bit
/// (the zero-config differential contract, pinned in the serve and core
/// test suites).
fn overload(scenario: &Qntn, config: SimConfig, cli: &Cli) -> Result<(), QntnError> {
    banner("Overload control - offered load x fault intensity surface");
    let experiment = if cli.quick {
        OverloadExperiment::quick()
    } else {
        OverloadExperiment::standard()
    };
    let surface = experiment.run(scenario, config);
    print!("{}", report::overload_table(&surface));
    println!(
        "# flash-crowd workload (seed {}), capacity {:.1} pair-attempts/s per link;",
        experiment.seed, experiment.capacity.attempt_rate_hz
    );
    println!("# shed_% counts requests dropped by the overload layer (inside expired_%);");
    println!(
        "# deg_steps counts steps on any degradation rung (of {} total)",
        {
            // The surface shares one day; every cell reports the same total.
            surface
                .points
                .first()
                .map_or(0, |p| p.degrade_mode_steps.iter().sum::<u64>())
        }
    );
    let out = cli
        .sweep
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("out/overload.json"));
    ensure_parent_dir(&out)?;
    atomic_write(&out, report::overload_json(&surface).as_bytes())?;
    println!("wrote {}", out.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remove_checkpoint_reports_only_a_real_removal() {
        let dir = std::env::temp_dir().join(format!("qntn-reproduce-ckpt-{}", std::process::id()));
        // `remove_file` refuses a directory, even as root.
        std::fs::create_dir_all(&dir).unwrap();
        assert!(!remove_checkpoint(&dir));
        assert!(dir.is_dir());

        let file = dir.join("run.ckpt");
        atomic_write(&file, b"frame").unwrap();
        assert!(remove_checkpoint(&file));
        assert!(!file.exists());
        assert!(!remove_checkpoint(&file), "nothing left to remove");
        std::fs::remove_dir(&dir).ok();
    }
}
