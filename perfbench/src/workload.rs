//! The four workloads: what each one builds, what input its seed makes,
//! what one repetition of its measured phase runs, and how the output of
//! that repetition is checked.
//!
//! All four use the program defaults: `RetryPolicy::standard()`,
//! `RouteMetric::PaperInverseEta` and the default workload seed 2024.

use crate::trace::{Kind, Tracer, NO_GROUP};
use qntn_common::fnv1a64;
use qntn_core::architecture::{default_epoch, SpaceGround};
use qntn_core::scenario::Qntn;
use qntn_net::capacity::CapacityModel;
use qntn_net::faults::FaultModel;
use qntn_net::requests::RetryPolicy;
use qntn_net::runtime::{RunPolicy, RunReport};
use qntn_net::{ContactWindows, HostKind, QuantumNetworkSim, SimConfig, SweepEngine};
use qntn_orbit::ephemeris::{PAPER_DURATION_S, PAPER_STEP_S};
use qntn_orbit::{paper_constellation, scaled_shell, Ephemeris, PerturbationModel, Propagator};
use qntn_quantum::memory::ClassMemory;
use qntn_routing::RouteMetric;
use qntn_serve::{
    flash_crowd, generate, ingest, overload_report, report_from_run, serve_overload,
    serve_report_with_holds, serve_resilient, FlashCrowdConfig, GroupAgg, HoldPolicy,
    OverloadPolicy, RawRequest, RequestQueue, ServeReport, WorkloadKind,
};
use std::sync::Arc;

/// The program's default workload seed; the pinned outputs were taken at it.
pub const DEFAULT_SEED: u64 = 2024;

/// The routing metric of every workload: the program default.
pub const METRIC: RouteMetric = RouteMetric::PaperInverseEta;

/// Steps of the simulated day.
const DAY_STEPS: u64 = (PAPER_DURATION_S / PAPER_STEP_S) as u64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `scaled_shell(1080)`, ISLs off; the measured phase is
    /// `SweepEngine::connectivity_flags`.
    Sweep1080,
    /// Table II's 108 satellites, 1,000,000 uniform requests through
    /// `serve_resilient`.
    ServeUniform1m,
    /// 108 satellites, 200,000 Poisson requests through
    /// `serve_report_with_holds` at horizon 4.
    HoldPoisson200k,
    /// 108 satellites, 400,000 flash-crowd requests through
    /// `serve_overload` on a faulted day.
    OverloadFlash400k,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Sweep1080,
        Workload::ServeUniform1m,
        Workload::HoldPoisson200k,
        Workload::OverloadFlash400k,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep1080 => "sweep_1080",
            Workload::ServeUniform1m => "serve_uniform_1m",
            Workload::HoldPoisson200k => "hold_poisson_200k",
            Workload::OverloadFlash400k => "overload_flash_400k",
        }
    }

    /// Setups per iteration of a timed run, each one a `setup_s` sample.
    /// The 108-satellite setup is short next to its measured phase, so it
    /// is sampled several times per phase.
    pub fn setups_per_iteration(self) -> usize {
        match self {
            Workload::Sweep1080 => 1,
            _ => 3,
        }
    }

    /// The output of the default seed as pinned: FNV-1a of the rendering,
    /// and its headline.
    fn pinned(self) -> (u64, &'static str) {
        match self {
            Workload::Sweep1080 => (0xa092_6dbe_0c17_c765, "2880/2880 steps connected"),
            Workload::ServeUniform1m => (0xce25_31a6_3e3c_2030, "97.6373% served"),
            Workload::HoldPoisson200k => (0xd634_6d70_0a09_40ac, "99.4550% served"),
            Workload::OverloadFlash400k => (0xb06f_f042_7ee2_1bd9, "50.0995% served"),
        }
    }

    /// The movement sheets, assembled into the space-ground architecture.
    /// The sweep has no request stream, so its seed picks the day instead:
    /// the epoch moves by whole steps, and the default seed keeps the
    /// program's default epoch.
    pub fn assemble<T: Tracer>(self, scenario: &Qntn, seed: u64, tr: &mut T) -> SpaceGround {
        let (elements, shift, config) = match self {
            Workload::Sweep1080 => (
                scaled_shell(1080).elements(),
                seed.wrapping_sub(DEFAULT_SEED) % DAY_STEPS,
                // ISLs off at scale, as in `reproduce bench --scale`.
                SimConfig {
                    enable_isl: false,
                    ..SimConfig::default()
                },
            ),
            _ => (paper_constellation(108), 0, SimConfig::default()),
        };
        let epoch = default_epoch().plus_seconds(shift as f64 * PAPER_STEP_S);
        let ephemerides = tr.span(Kind::Ephemeris, NO_GROUP, |_| {
            let props: Vec<Propagator> = elements
                .into_iter()
                .map(|k| Propagator::new(k, epoch, PerturbationModel::TwoBody))
                .collect();
            Ephemeris::generate_many(&props, epoch, PAPER_STEP_S, PAPER_DURATION_S)
        });
        tr.span(Kind::Assembly, NO_GROUP, |_| {
            SpaceGround::from_ephemerides(scenario, ephemerides, config)
        })
    }

    /// The request stream of `seed`; empty for the sweep.
    pub fn generate(self, sim: &QuantumNetworkSim, seed: u64) -> Vec<RawRequest> {
        match self {
            Workload::Sweep1080 => Vec::new(),
            Workload::ServeUniform1m => generate(sim, WorkloadKind::Uniform, 1_000_000, seed),
            Workload::HoldPoisson200k => generate(sim, WorkloadKind::Poisson, 200_000, seed),
            Workload::OverloadFlash400k => {
                flash_crowd(sim, 400_000, seed, FlashCrowdConfig::default())
            }
        }
    }
}

/// The ready engine over `sim`: contact windows, the Scene compile and, on
/// `overload_flash_400k`, the fault mask of `FaultModel::standard(42)` at
/// intensity 2.0.
pub fn engine<'a, T: Tracer>(
    w: Workload,
    sim: &'a QuantumNetworkSim,
    tr: &mut T,
) -> SweepEngine<'a> {
    let windows = tr.span(Kind::Windows, NO_GROUP, |_| ContactWindows::for_sim(sim));
    let engine = tr.span(Kind::Scene, NO_GROUP, |_| {
        SweepEngine::with_windows(sim, windows)
    });
    if w != Workload::OverloadFlash400k {
        return engine;
    }
    let mask = tr.span(Kind::Faults, NO_GROUP, |_| {
        FaultModel::standard(42).with_intensity(2.0).compile(sim)
    });
    engine.with_faults(Arc::new(mask))
}

/// `hold_poisson_200k`'s memory policy: horizon 4 (a `reproduce timeexp`
/// rung; horizons of 4 and more serve identical rows), standard memories,
/// fidelity floor 0.85.
pub fn hold_policy() -> HoldPolicy {
    HoldPolicy {
        horizon_steps: 4,
        memory: ClassMemory::standard(),
        fidelity_floor: 0.85,
    }
}

/// Movement-sheet samples held by `sim`'s satellites.
pub fn ephemeris_samples(sim: &QuantumNetworkSim) -> usize {
    sim.hosts()
        .iter()
        .map(|h| match &h.kind {
            HostKind::Satellite { ephemeris } => ephemeris.len(),
            _ => 0,
        })
        .sum()
}

/// What one repetition of a measured phase produced.
pub struct Output {
    /// Items completed: steps with a flag, or accepted requests carried
    /// through serving.
    pub items: u64,
    /// Operations attempted: steps, or requests offered to `ingest`.
    pub attempted: u64,
    /// Operations failed: steps without a flag, requests rejected at ingest
    /// or lost to a quarantined chunk.
    pub failed: u64,
    pub accepted: u64,
    pub rejected: u64,
    /// Computed size of the ingested `RequestQueue`.
    pub queue_bytes: usize,
    pub report: Option<ServeReport>,
    pub congestion_deferrals: u64,
    /// What the pinned digest covers: the flag string, or the report JSON
    /// (plus the deferral counts on overload).
    pub rendering: String,
    /// One line for the log.
    pub headline: String,
    /// The identities every seed's output must satisfy.
    pub identities: Result<(), String>,
}

impl Output {
    pub fn digest(&self) -> u64 {
        fnv1a64(self.rendering.as_bytes())
    }
}

/// Check one output: its identities, and at the default seed the digest
/// pinned for `w`.
pub fn check(w: Workload, seed: u64, out: &Output) -> Result<(), String> {
    out.identities.clone()?;
    let (digest, headline) = w.pinned();
    if seed == DEFAULT_SEED && out.digest() != digest {
        return Err(format!(
            "output {:#018x} ({}) differs from the pinned {digest:#018x} ({headline})",
            out.digest(),
            out.headline
        ));
    }
    Ok(())
}

/// One repetition of `w`'s measured phase on `engine`.
pub fn run_once<T: Tracer>(
    w: Workload,
    engine: &SweepEngine<'_>,
    stream: &[RawRequest],
    seed: u64,
    tr: &mut T,
) -> Result<Output, String> {
    let sim = engine.sim();
    if w == Workload::Sweep1080 {
        return Ok(sweep_output(sim.steps(), &engine.connectivity_flags()));
    }
    let (queue, rejected) = tr.span(Kind::Ingest, NO_GROUP, |_| {
        ingest(sim.hosts().len(), sim.steps(), stream)
    });
    let rejected = rejected.len() as u64;
    let policy = RetryPolicy::standard();
    let (report, lost, deferrals) = match w {
        Workload::Sweep1080 => unreachable!("the sweep returned above"),
        Workload::ServeUniform1m => {
            let (report, lost) = tr.span(Kind::Call, NO_GROUP, |_| {
                // No checkpoint file, so the fingerprint binds nothing.
                let run = serve_resilient(engine, &queue, policy, METRIC, 0, &RunPolicy::default())
                    .map_err(|e| e.to_string())?;
                Ok::<_, String>((report_from_run(&run, rejected), lost_requests(&queue, &run)))
            })?;
            (report, lost, None)
        }
        Workload::HoldPoisson200k => {
            let report = tr.span(Kind::Call, NO_GROUP, |_| {
                serve_report_with_holds(engine, &queue, policy, METRIC, &hold_policy(), rejected)
            });
            (report, 0, None)
        }
        Workload::OverloadFlash400k => {
            let capacity = CapacityModel {
                attempt_rate_hz: 5.0,
                window_s: 30.0,
            };
            let out = tr.span(Kind::Overload, NO_GROUP, |_| {
                serve_overload(
                    engine,
                    &queue,
                    policy,
                    METRIC,
                    Some(capacity),
                    &HoldPolicy::disabled(),
                    &OverloadPolicy::standard(seed),
                )
            });
            let report = tr.span(Kind::Report, NO_GROUP, |_| {
                overload_report(&out, &queue, rejected)
            });
            (report, 0, Some(out.congestion_deferrals))
        }
    };
    Ok(serve_output(
        stream.len(),
        &queue,
        rejected,
        lost,
        report,
        deferrals,
    ))
}

/// Accepted requests of arrival groups a run left without output:
/// quarantined chunks, which the default fail-fast policy never produces.
fn lost_requests(queue: &RequestQueue, run: &RunReport<GroupAgg>) -> u64 {
    queue
        .groups()
        .iter()
        .zip(&run.outputs)
        .filter(|(_, out)| out.is_none())
        .map(|((_, range), _)| range.len() as u64)
        .sum()
}

/// The output of a connectivity sweep: one flag per step.
pub fn sweep_output(steps: usize, flags: &[bool]) -> Output {
    let connected = flags.iter().filter(|&&c| c).count();
    Output {
        items: flags.len() as u64,
        attempted: steps as u64,
        failed: steps.saturating_sub(flags.len()) as u64,
        accepted: 0,
        rejected: 0,
        queue_bytes: 0,
        report: None,
        congestion_deferrals: 0,
        rendering: flags.iter().map(|&c| if c { '1' } else { '0' }).collect(),
        headline: format!("{connected}/{steps} steps connected"),
        identities: if flags.len() == steps {
            Ok(())
        } else {
            Err(format!("{} flags for {steps} steps", flags.len()))
        },
    }
}

/// The output of a serve run over `queue`, whose report covers every
/// accepted request but the `lost` ones. `deferrals` carries the congestion
/// deferral count of an overload run.
pub fn serve_output(
    offered: usize,
    queue: &RequestQueue,
    rejected: u64,
    lost: u64,
    report: ServeReport,
    deferrals: Option<u64>,
) -> Output {
    let accepted = queue.len() as u64;
    let shares = report.first_try_percent() + report.rescued_percent() + report.expired_percent();
    let problems: Vec<String> = [
        (
            report.attempted > 0 && (shares - 100.0).abs() > 1e-9,
            format!("first-try + rescued + expired = {shares}%"),
        ),
        (
            report.served() > report.attempted,
            format!(
                "served {} > attempted {}",
                report.served(),
                report.attempted
            ),
        ),
        (
            report.attempted + lost != accepted,
            format!(
                "attempted {} + lost {lost} != accepted {accepted}",
                report.attempted
            ),
        ),
        (
            report.shed > report.expired,
            format!("shed {} > expired {}", report.shed, report.expired),
        ),
    ]
    .into_iter()
    .filter_map(|(bad, problem)| bad.then_some(problem))
    .collect();
    let mut rendering = report.to_json();
    if let Some(congestion) = deferrals {
        rendering.push_str(&format!(
            "congestion_deferrals {congestion}\nbudget_deferrals {}\n",
            report.deferred_by_budget
        ));
    }
    Output {
        items: accepted - lost,
        attempted: offered as u64,
        failed: rejected + lost,
        accepted,
        rejected,
        // The queue's five `usize` columns and one `u8` column, plus its groups.
        queue_bytes: queue.len() * (5 * size_of::<usize>() + size_of::<u8>())
            + size_of_val(queue.groups()),
        headline: format!("{:.4}% served", report.served_percent()),
        rendering,
        report: Some(report),
        congestion_deferrals: deferrals.unwrap_or(0),
        identities: if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        },
    }
}
