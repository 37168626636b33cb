//! The constellation request sweep shared by Fig. 7 and Fig. 8.
//!
//! For each constellation size N: build the space–ground simulator from the
//! shared Table II ephemeris prefix, draw 100 random inter-LAN requests at
//! each of 100 evenly sampled time steps of satellite movement, serve them
//! once each through the serving walk ([`serve_batches`]) with the paper's
//! Bellman–Ford metric, and record the served percentage (Fig. 7) and the
//! average fidelity of the resolved requests (Fig. 8).

use crate::architecture::SpaceGround;
use crate::experiments::{paper_constellation_sizes, serve_batches};
use crate::scenario::Qntn;
use qntn_net::requests::{aggregate_retry_outcomes, sample_steps, RetryStats};
use qntn_net::{ContactWindows, SimConfig, SweepEngine};
use qntn_orbit::PerturbationModel;
use qntn_routing::RouteMetric;
use serde::{Deserialize, Serialize};

/// The paper's workload shape: 100 requests × 100 sampled steps.
pub const PAPER_REQUESTS_PER_STEP: usize = 100;
pub const PAPER_SAMPLED_STEPS: usize = 100;

/// Workload/seed configuration for the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepSettings {
    pub requests_per_step: usize,
    pub sampled_steps: usize,
    pub seed: u64,
    pub metric: RouteMetric,
}

impl SweepSettings {
    /// The paper's settings.
    pub fn paper() -> SweepSettings {
        SweepSettings {
            requests_per_step: PAPER_REQUESTS_PER_STEP,
            sampled_steps: PAPER_SAMPLED_STEPS,
            seed: 2024,
            metric: RouteMetric::PaperInverseEta,
        }
    }

    /// A reduced load for tests and quick demos.
    pub fn quick() -> SweepSettings {
        SweepSettings {
            requests_per_step: 20,
            sampled_steps: 8,
            seed: 7,
            metric: RouteMetric::PaperInverseEta,
        }
    }
}

/// Per-N outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    pub satellites: usize,
    pub stats: RetryStats,
}

/// The full constellation sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConstellationSweep {
    pub settings: SweepSettings,
    pub points: Vec<SweepPoint>,
}

impl ConstellationSweep {
    /// Run the paper's sweep (6..108 step 6).
    pub fn paper(scenario: &Qntn, config: SimConfig) -> ConstellationSweep {
        Self::run(
            scenario,
            config,
            &paper_constellation_sizes(),
            SweepSettings::paper(),
            PerturbationModel::TwoBody,
        )
    }

    /// Run for arbitrary sizes and settings (parallel over time steps).
    /// One full-day contact-window precompute of the largest constellation
    /// is shared across every prefix size.
    pub fn run(
        scenario: &Qntn,
        config: SimConfig,
        sizes: &[usize],
        settings: SweepSettings,
        model: PerturbationModel,
    ) -> ConstellationSweep {
        let max_n = sizes.iter().copied().max().unwrap_or(0);
        let ephemerides = SpaceGround::ephemerides(max_n, model);
        let max_arch = SpaceGround::from_ephemerides(scenario, ephemerides.clone(), config);
        let steps = sample_steps(max_arch.sim().steps(), settings.sampled_steps);
        let windows = ContactWindows::for_sim(max_arch.sim());
        let points = sizes
            .iter()
            .map(|&n| {
                let arch =
                    SpaceGround::from_ephemerides(scenario, ephemerides[..n].to_vec(), config);
                let engine = SweepEngine::with_windows(arch.sim(), windows.prefix(n));
                let outcomes = serve_batches(
                    &engine,
                    &steps,
                    settings.requests_per_step,
                    settings.seed,
                    settings.metric,
                );
                let stats = aggregate_retry_outcomes(&[outcomes]);
                SweepPoint {
                    satellites: n,
                    stats,
                }
            })
            .collect();
        ConstellationSweep { settings, points }
    }

    /// The largest-N point (the paper's 108-satellite headline).
    pub fn final_point(&self) -> &SweepPoint {
        self.points.last().expect("sweep is never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ConstellationSweep {
        ConstellationSweep::run(
            &Qntn::standard(),
            SimConfig::default(),
            &[6, 24],
            SweepSettings::quick(),
            PerturbationModel::TwoBody,
        )
    }

    #[test]
    fn served_grows_with_satellites_and_fidelity_is_high() {
        let s = small();
        assert_eq!(s.points.len(), 2);
        let (p6, p24) = (&s.points[0], &s.points[1]);
        assert!(p24.stats.served_percent() >= p6.stats.served_percent());
        // Any served request rode links above 0.7, so per the Fig. 5 curve
        // its fidelity exceeds ~0.84 even over two hops; averages sit higher.
        for p in &s.points {
            if p.stats.served() > 0 {
                assert!(
                    p.stats.mean_fidelity > 0.85,
                    "N={}: {}",
                    p.satellites,
                    p.stats.mean_fidelity
                );
                assert!(p.stats.mean_fidelity <= 1.0);
            }
        }
    }

    #[test]
    fn attempted_counts_match_workload() {
        let s = small();
        for p in &s.points {
            assert_eq!(p.stats.attempted, 20 * 8);
        }
    }

    #[test]
    fn determinism() {
        let a = small();
        let b = small();
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.stats, y.stats);
        }
    }
}
