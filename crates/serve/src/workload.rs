//! Seeded request-stream generators — the scenario axes of the serve layer.
//!
//! Every generator is a pure function of `(sim shape, n, seed)`: same
//! inputs, same stream, bit for bit. Endpoints are always inter-LAN ground
//! nodes (the paper's Fig. 7 convention); the kinds differ in *when*
//! requests arrive and *where* they concentrate:
//!
//! - [`WorkloadKind::Uniform`] — arrivals uniform over the day, endpoints
//!   uniform over LAN pairs.
//! - [`WorkloadKind::Poisson`] — a Poisson arrival process (exponential
//!   inter-arrival gaps at rate `n / steps`, wrapped around the day), the
//!   memoryless baseline of queueing models.
//! - [`WorkloadKind::Diurnal`] — arrival density follows a day cycle,
//!   `rate(t) ∝ 1 − cos(2πt/steps)`, peaking mid-day (thinning sampler).
//! - [`WorkloadKind::Hotspot`] — three quarters of the traffic pinned to
//!   one LAN pair, the skew that stresses capacity admission.
//! - [`WorkloadKind::FlashCrowd`] — a uniform baseline rate plus seeded
//!   burst windows where the arrival density jumps by a configurable
//!   amplitude ([`FlashCrowdConfig`]) — the overload layer's stress
//!   scenario.
//!
//! Deadlines and priorities are drawn per request (10–39 steps, classes
//! 0–3) so retry pruning and per-class reporting always have structure to
//! chew on.
//!
//! [`step_batches`] is the paper's request sweep as a stream: a fresh
//! seeded batch of inter-LAN requests at each sampled step.

use crate::request::RawRequest;
use qntn_net::{QuantumNetworkSim, RequestWorkload};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The request-stream shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    Uniform,
    Poisson,
    Diurnal,
    Hotspot,
    /// Uniform baseline plus seeded burst windows
    /// ([`FlashCrowdConfig::default`]).
    FlashCrowd,
}

impl WorkloadKind {
    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<WorkloadKind> {
        match s {
            "uniform" => Some(WorkloadKind::Uniform),
            "poisson" => Some(WorkloadKind::Poisson),
            "diurnal" => Some(WorkloadKind::Diurnal),
            "hotspot" => Some(WorkloadKind::Hotspot),
            "flash_crowd" => Some(WorkloadKind::FlashCrowd),
            _ => None,
        }
    }

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Uniform => "uniform",
            WorkloadKind::Poisson => "poisson",
            WorkloadKind::Diurnal => "diurnal",
            WorkloadKind::Hotspot => "hotspot",
            WorkloadKind::FlashCrowd => "flash_crowd",
        }
    }

    /// Stable id for run fingerprints.
    pub fn id(self) -> u64 {
        match self {
            WorkloadKind::Uniform => 0,
            WorkloadKind::Poisson => 1,
            WorkloadKind::Diurnal => 2,
            WorkloadKind::Hotspot => 3,
            WorkloadKind::FlashCrowd => 4,
        }
    }
}

/// Shape of the flash-crowd bursts: `windows` intervals, each
/// `window_frac` of the day, with arrival density `amplitude ×` the
/// baseline inside them. Window starts are drawn from the stream seed,
/// so the whole scenario stays a pure function of `(sim, n, seed)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowdConfig {
    /// Number of burst windows over the day.
    pub windows: usize,
    /// Each window's length as a fraction of the day.
    pub window_frac: f64,
    /// Arrival-density multiplier inside a window.
    pub amplitude: f64,
}

impl Default for FlashCrowdConfig {
    /// Three windows of 3% of the day each at 32× the baseline density —
    /// roughly three quarters of all arrivals land inside the bursts.
    fn default() -> FlashCrowdConfig {
        FlashCrowdConfig {
            windows: 3,
            window_frac: 0.03,
            amplitude: 32.0,
        }
    }
}

/// Generate `n` requests of `kind` against `sim`, deterministically from
/// `seed`. Every generated request is valid for `sim` ([`crate::ingest`]
/// accepts the whole stream); the boundary still re-validates, because
/// real streams are not generated.
///
/// # Panics
/// Panics when the simulator has fewer than two populated LANs or zero
/// steps — a configuration error, not request input.
pub fn generate(
    sim: &QuantumNetworkSim,
    kind: WorkloadKind,
    n: usize,
    seed: u64,
) -> Vec<RawRequest> {
    generate_with(sim, kind, n, seed, FlashCrowdConfig::default())
}

/// The paper's request sweep as a stream: at each of `steps`, in order,
/// `per_step` priority-0 requests arriving there, drawn by
/// [`RequestWorkload::generate`] from `seed ^ step·0x9e3779b97f4a7c15`
/// (step 0's batch is drawn from `seed` itself), each with
/// `deadline_steps`.
///
/// # Panics
/// Panics when the simulator has fewer than two populated LANs.
pub fn step_batches(
    sim: &QuantumNetworkSim,
    steps: &[usize],
    per_step: usize,
    seed: u64,
    deadline_steps: usize,
) -> Vec<RawRequest> {
    steps
        .iter()
        .flat_map(|&step| {
            let batch_seed = seed ^ (step as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            RequestWorkload::generate(sim, per_step, batch_seed)
                .requests
                .into_iter()
                .map(move |r| RawRequest {
                    src: r.src,
                    dst: r.dst,
                    arrival_step: step,
                    deadline_steps,
                    priority: 0,
                })
        })
        .collect()
}

/// [`WorkloadKind::FlashCrowd`] with an explicit burst shape —
/// [`generate`] uses [`FlashCrowdConfig::default`].
pub fn flash_crowd(
    sim: &QuantumNetworkSim,
    n: usize,
    seed: u64,
    crowd: FlashCrowdConfig,
) -> Vec<RawRequest> {
    generate_with(sim, WorkloadKind::FlashCrowd, n, seed, crowd)
}

fn generate_with(
    sim: &QuantumNetworkSim,
    kind: WorkloadKind,
    n: usize,
    seed: u64,
    crowd: FlashCrowdConfig,
) -> Vec<RawRequest> {
    let lans: Vec<&[usize]> = (0..sim.lan_count())
        .map(|l| sim.lan_members(l))
        .filter(|m| !m.is_empty())
        .collect();
    assert!(lans.len() >= 2, "need at least two populated LANs");
    let steps = sim.steps();
    assert!(steps > 0, "need at least one time step");

    let mut rng = StdRng::seed_from_u64(seed ^ kind.id().wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let rate = n as f64 / steps as f64;
    let mut poisson_t = 0.0_f64;

    // Flash-crowd burst windows, drawn up front from the stream RNG (the
    // other kinds draw nothing here, so their streams are unchanged).
    // Windows wrap around the day and may overlap; sampling is uniform
    // over the covered/uncovered step sets, weighted so the density
    // inside the bursts is `amplitude ×` the baseline.
    let mut burst_steps: Vec<usize> = Vec::new();
    let mut base_steps: Vec<usize> = Vec::new();
    let mut p_burst = 0.0_f64;
    if kind == WorkloadKind::FlashCrowd {
        let win_len = ((steps as f64 * crowd.window_frac).round() as usize).clamp(1, steps);
        let mut mask = vec![false; steps];
        for _ in 0..crowd.windows {
            let start = rng.random_range(0..steps);
            for k in 0..win_len {
                mask[(start + k) % steps] = true;
            }
        }
        for (t, &in_burst) in mask.iter().enumerate() {
            if in_burst {
                burst_steps.push(t);
            } else {
                base_steps.push(t);
            }
        }
        let covered = burst_steps.len() as f64;
        let uncovered = base_steps.len() as f64;
        let weighted = crowd.amplitude.max(0.0) * covered;
        p_burst = if weighted + uncovered > 0.0 {
            weighted / (weighted + uncovered)
        } else {
            0.0
        };
    }

    (0..n)
        .map(|_| {
            let arrival_step = match kind {
                WorkloadKind::Uniform | WorkloadKind::Hotspot => rng.random_range(0..steps),
                WorkloadKind::Poisson => {
                    // Exponential gap at the mean rate; wrap past the day
                    // end so the count stays exactly n.
                    let u: f64 = rng.random();
                    poisson_t += -(1.0 - u).ln() / rate.max(f64::MIN_POSITIVE);
                    (poisson_t as usize) % steps
                }
                WorkloadKind::Diurnal => loop {
                    // Thinning: accept t with probability ∝ 1 − cos(2πt/T).
                    let t = rng.random_range(0..steps);
                    let phase = 2.0 * std::f64::consts::PI * t as f64 / steps as f64;
                    let accept = 0.5 * (1.0 - phase.cos());
                    if rng.random::<f64>() < accept {
                        break t;
                    }
                },
                WorkloadKind::FlashCrowd => {
                    if !burst_steps.is_empty()
                        && (base_steps.is_empty() || rng.random::<f64>() < p_burst)
                    {
                        burst_steps[rng.random_range(0..burst_steps.len())]
                    } else {
                        base_steps[rng.random_range(0..base_steps.len())]
                    }
                }
            };
            let (a, b) = match kind {
                // Three quarters of hotspot traffic rides one LAN pair.
                WorkloadKind::Hotspot if rng.random_range(0..4u32) < 3 => (0, 1),
                _ => {
                    let a = rng.random_range(0..lans.len());
                    let b = loop {
                        let b = rng.random_range(0..lans.len());
                        if b != a {
                            break b;
                        }
                    };
                    (a, b)
                }
            };
            let src = lans[a][rng.random_range(0..lans[a].len())];
            let dst = lans[b][rng.random_range(0..lans[b].len())];
            RawRequest {
                src,
                dst,
                arrival_step,
                deadline_steps: 10 + rng.random_range(0..30usize),
                priority: rng.random_range(0..4u32) as u8,
            }
        })
        .collect()
}
