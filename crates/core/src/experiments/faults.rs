//! Degradation under deterministic fault injection — the `reproduce
//! faults` artifact.
//!
//! The paper's Table III assumes ideal conditions: every platform healthy
//! all day. This experiment re-runs the headline comparison (space–ground
//! constellation vs. air–ground HAP) under a seeded [`FaultModel`] at a
//! ladder of intensities, with retry-with-backoff request semantics, and
//! reports how coverage, served percentage and fidelity degrade. Intensity
//! 0 is exactly the paper's assumption — the zero point reproduces the
//! fault-free run bit for bit (asserted by tests), so the ladder anchors to
//! the published numbers.

use crate::architecture::{AirGround, SpaceGround};
use crate::scenario::Qntn;
use qntn_net::faults::FaultModel;
use qntn_net::requests::{aggregate_retry_outcomes, sample_steps, RetryPolicy, RetryStats};
use qntn_net::{QuantumNetworkSim, SimConfig, SweepEngine};
use qntn_orbit::PerturbationModel;
use qntn_routing::RouteMetric;
use qntn_serve::{ingest, serve_full_with_holds, step_batches, HoldPolicy};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Settings for one fault-degradation sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultExperiment {
    /// Space–ground constellation size.
    pub satellites: usize,
    /// The fault-intensity ladder (0 = the paper's ideal conditions).
    pub intensities: Vec<f64>,
    /// Seed of the fault schedule (workload seed is separate).
    pub fault_seed: u64,
    /// How many arrival steps to sample across the day.
    pub sampled_steps: usize,
    /// Requests per sampled arrival step.
    pub requests_per_step: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Routing metric.
    pub metric: RouteMetric,
    /// Retry policy for blocked requests.
    pub retry: RetryPolicy,
}

/// One architecture's numbers at one fault intensity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultArchPoint {
    /// Full-day coverage percentage (paper Eq. 7) under the mask.
    pub coverage_percent: f64,
    /// Requests served by any attempt, percent.
    pub served_percent: f64,
    /// Served on the arrival step, percent.
    pub first_try_percent: f64,
    /// Rescued by a retry, percent.
    pub rescued_percent: f64,
    /// Expired unserved, percent.
    pub expired_percent: f64,
    /// Mean end-to-end square-root fidelity over served requests.
    pub mean_fidelity: f64,
    /// Mean per-link square-root fidelity over served requests.
    pub mean_link_fidelity: f64,
    /// The raw retried-sweep statistics.
    pub stats: RetryStats,
}

/// One rung of the intensity ladder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPoint {
    pub intensity: f64,
    pub space: FaultArchPoint,
    pub air: FaultArchPoint,
}

/// The full degradation sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSweep {
    pub satellites: usize,
    pub points: Vec<FaultPoint>,
}

impl FaultExperiment {
    /// The full artifact: the paper's 108-satellite constellation and HAP,
    /// paper-sized workload, intensities from ideal to 4× nominal.
    pub fn standard() -> FaultExperiment {
        FaultExperiment {
            satellites: 108,
            intensities: vec![0.0, 0.5, 1.0, 2.0, 4.0],
            fault_seed: 777,
            sampled_steps: 100,
            requests_per_step: 100,
            seed: 2024,
            metric: RouteMetric::PaperInverseEta,
            retry: RetryPolicy::standard(),
        }
    }

    /// A small configuration for tests and `--quick` runs.
    pub fn quick() -> FaultExperiment {
        FaultExperiment {
            satellites: 8,
            intensities: vec![0.0, 1.0, 4.0],
            fault_seed: 777,
            sampled_steps: 8,
            requests_per_step: 15,
            seed: 2024,
            metric: RouteMetric::PaperInverseEta,
            retry: RetryPolicy::standard(),
        }
    }

    /// Run the sweep (parallel over time steps). Both architectures and
    /// their contact windows are built once; each rung compiles one fault
    /// mask per simulator and shares it across workers.
    pub fn run(&self, scenario: &Qntn, config: SimConfig) -> FaultSweep {
        let space = SpaceGround::new(
            scenario,
            self.satellites,
            config,
            PerturbationModel::TwoBody,
        );
        let air = AirGround::standard(scenario);
        let points = self
            .intensities
            .iter()
            .map(|&intensity| FaultPoint {
                intensity,
                space: self.arch_point(space.sim(), intensity),
                air: self.arch_point(air.sim(), intensity),
            })
            .collect();
        FaultSweep {
            satellites: self.satellites,
            points,
        }
    }

    fn arch_point(&self, sim: &QuantumNetworkSim, intensity: f64) -> FaultArchPoint {
        let faults = Arc::new(
            FaultModel::standard(self.fault_seed)
                .with_intensity(intensity)
                .compile(sim),
        );
        let engine = SweepEngine::new(sim).with_faults(faults);
        let coverage = engine.coverage().percent();
        // Per sampled arrival step, a fresh seeded batch of inter-LAN
        // requests, served per-step with retry-with-backoff.
        let stream = step_batches(
            sim,
            &sample_steps(sim.steps(), self.sampled_steps),
            self.requests_per_step,
            self.seed,
            self.retry.deadline_steps,
        );
        // Inter-LAN requests at in-day steps always pass the boundary, and
        // the ascending arrivals keep the queue in stream order.
        let (queue, _) = ingest(sim.hosts().len(), sim.steps(), &stream);
        let outcomes = serve_full_with_holds(
            &engine,
            &queue,
            self.retry,
            self.metric,
            &HoldPolicy::disabled(),
        );
        let stats = aggregate_retry_outcomes(&[outcomes]);
        FaultArchPoint {
            coverage_percent: coverage,
            served_percent: stats.served_percent(),
            first_try_percent: stats.first_try_percent(),
            rescued_percent: stats.rescued_percent(),
            expired_percent: stats.expired_percent(),
            mean_fidelity: stats.mean_fidelity,
            mean_link_fidelity: stats.mean_link_fidelity,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fidelity::FidelityExperiment;

    fn tiny() -> FaultExperiment {
        FaultExperiment {
            satellites: 4,
            intensities: vec![0.0, 1.0, FaultModel::INTENSITY_CAP],
            sampled_steps: 4,
            requests_per_step: 10,
            ..FaultExperiment::quick()
        }
    }

    #[test]
    fn served_is_monotone_in_intensity() {
        let q = Qntn::standard();
        let sweep = tiny().run(&q, SimConfig::default());
        for pair in sweep.points.windows(2) {
            assert!(pair[0].intensity < pair[1].intensity);
            assert!(
                pair[1].space.stats.served() <= pair[0].space.stats.served(),
                "space served rose: {:?}",
                pair
            );
            assert!(
                pair[1].air.stats.served() <= pair[0].air.stats.served(),
                "air served rose: {:?}",
                pair
            );
        }
        // Percent splits always partition the workload.
        for p in &sweep.points {
            for a in [p.space, p.air] {
                let total = a.first_try_percent + a.rescued_percent + a.expired_percent;
                assert!((total - 100.0).abs() < 1e-9, "{total}");
            }
        }
    }

    #[test]
    fn zero_intensity_matches_the_fault_free_experiment() {
        // The ladder's anchor: at intensity 0 the (single-attempt) served
        // set must equal the fault-free FidelityExperiment's, request for
        // request — the "ideal conditions" row IS the paper's number.
        let q = Qntn::standard();
        let mut e = tiny();
        e.retry = RetryPolicy::none();
        let sweep = e.run(&q, SimConfig::default());
        let zero = &sweep.points[0];
        assert_eq!(zero.intensity, 0.0);
        let clean = FidelityExperiment {
            sampled_steps: e.sampled_steps,
            requests_per_step: e.requests_per_step,
            seed: e.seed,
            metric: e.metric,
        };
        let arch = SpaceGround::new(
            &q,
            e.satellites,
            SimConfig::default(),
            PerturbationModel::TwoBody,
        );
        let clean_space = clean.run_space_ground(&arch);
        assert_eq!(zero.space.stats.served(), clean_space.stats.served());
        assert_eq!(
            zero.space.mean_fidelity.to_bits(),
            clean_space.mean_fidelity.to_bits(),
            "fault-free fidelity must be bit-identical at intensity 0"
        );
        assert_eq!(zero.space.stats.served_after_retry, 0);
    }

    /// Two runs agree. That the thread count changes no bit is checked
    /// through the binary (`crates/bench/tests/cli.rs`), which can pin
    /// the process thread count.
    #[test]
    fn deterministic_across_runs_and_parallelism() {
        let q = Qntn::standard();
        let e = tiny();
        let a = e.run(&q, SimConfig::default());
        let b = e.run(&q, SimConfig::default());
        assert_eq!(a, b);
    }
}
