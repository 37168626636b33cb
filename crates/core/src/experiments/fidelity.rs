//! The per-architecture request/fidelity experiment — the source of the
//! Table III "serving requests" and "entanglement fidelity" columns, and
//! of the air-ground numbers quoted in Section IV-C. The requests are the
//! paper's sweep, served once each through the serving walk
//! ([`serve_batches`]); the stability, hybrid and fleet extensions and
//! ablation A1 reuse it.

use crate::architecture::{AirGround, SpaceGround};
use crate::experiments::serve_batches;
use qntn_net::requests::{aggregate_retry_outcomes, sample_steps, RetryStats};
use qntn_net::{QuantumNetworkSim, SweepEngine};
use qntn_routing::RouteMetric;
use serde::{Deserialize, Serialize};

/// Workload settings for one architecture evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FidelityExperiment {
    /// How many time steps to sample across the day.
    pub sampled_steps: usize,
    /// Requests per sampled step.
    pub requests_per_step: usize,
    /// RNG seed (workloads are deterministic given the seed).
    pub seed: u64,
    /// Routing metric.
    pub metric: RouteMetric,
}

/// What one architecture achieved.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArchReport {
    /// Percentage of sampled steps with all LANs interconnected.
    pub coverage_percent: f64,
    /// Percentage of requests served.
    pub served_percent: f64,
    /// Mean end-to-end square-root fidelity over served requests.
    pub mean_fidelity: f64,
    /// Mean per-link square-root fidelity over served requests.
    pub mean_link_fidelity: f64,
    /// Mean end-to-end transmissivity over served requests.
    pub mean_eta: f64,
    /// Mean path length (links) over served requests.
    pub mean_hops: f64,
    /// The raw sweep statistics.
    pub stats: RetryStats,
}

impl FidelityExperiment {
    /// The paper's workload: 100 requests × 100 time steps.
    pub fn paper() -> FidelityExperiment {
        FidelityExperiment {
            sampled_steps: 100,
            requests_per_step: 100,
            seed: 2024,
            metric: RouteMetric::PaperInverseEta,
        }
    }

    /// A small workload for tests, demos and doctests.
    pub fn quick() -> FidelityExperiment {
        FidelityExperiment {
            sampled_steps: 4,
            requests_per_step: 20,
            seed: 7,
            metric: RouteMetric::PaperInverseEta,
        }
    }

    /// Evaluate any simulator (parallel over time steps). One
    /// contact-window-pruned engine serves both the request sweep and the
    /// connectivity census.
    pub fn run(&self, sim: &QuantumNetworkSim) -> ArchReport {
        self.run_on(&SweepEngine::new(sim))
    }

    /// [`FidelityExperiment::run`] on a caller's engine, so several
    /// workloads over one simulator (ablation A1's routing metrics) share
    /// its windows and Scene.
    pub fn run_on(&self, engine: &SweepEngine<'_>) -> ArchReport {
        let sim = engine.sim();
        let steps = sample_steps(sim.steps(), self.sampled_steps);
        let stats = aggregate_retry_outcomes(&[serve_batches(
            engine,
            &steps,
            self.requests_per_step,
            self.seed,
            self.metric,
        )]);
        let connected = engine
            .map_steps(&steps, |scratch, step| {
                engine.active_graph_into(step, scratch);
                sim.lans_interconnected(&scratch.active)
            })
            .into_iter()
            .filter(|&c| c)
            .count();
        ArchReport {
            coverage_percent: 100.0 * connected as f64 / steps.len() as f64,
            served_percent: stats.served_percent(),
            mean_fidelity: stats.mean_fidelity,
            mean_link_fidelity: stats.mean_link_fidelity,
            mean_eta: stats.mean_eta,
            mean_hops: stats.mean_hops,
            stats,
        }
    }

    /// Evaluate the air–ground architecture.
    pub fn run_air_ground(&self, arch: &AirGround) -> ArchReport {
        self.run(arch.sim())
    }

    /// Evaluate the space–ground architecture.
    pub fn run_space_ground(&self, arch: &SpaceGround) -> ArchReport {
        self.run(arch.sim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Qntn;
    use qntn_net::SimConfig;
    use qntn_orbit::PerturbationModel;

    #[test]
    fn air_ground_quick_run_matches_paper_shape() {
        let q = Qntn::standard();
        let arch = AirGround::standard(&q);
        let r = FidelityExperiment::quick().run_air_ground(&arch);
        assert!((r.coverage_percent - 100.0).abs() < 1e-12);
        assert!((r.served_percent - 100.0).abs() < 1e-12);
        assert!(
            r.mean_fidelity > 0.95,
            "air-ground fidelity: {}",
            r.mean_fidelity
        );
        assert!(r.mean_hops >= 2.0, "requests cross via the HAP");
    }

    #[test]
    fn space_ground_quick_run_is_partial() {
        let q = Qntn::standard();
        let arch = SpaceGround::new(&q, 12, SimConfig::default(), PerturbationModel::TwoBody);
        let r = FidelityExperiment::quick().run_space_ground(&arch);
        // 12 satellites cannot serve everything across a day.
        assert!(r.served_percent < 100.0);
        assert!(r.coverage_percent < 100.0);
        // Any served request used above-threshold links.
        if r.stats.served() > 0 {
            assert!(r.mean_fidelity > 0.85);
        }
    }

    #[test]
    fn deterministic() {
        let q = Qntn::standard();
        let arch = AirGround::standard(&q);
        let e = FidelityExperiment::quick();
        assert_eq!(e.run_air_ground(&arch).stats, e.run_air_ground(&arch).stats);
    }
}
