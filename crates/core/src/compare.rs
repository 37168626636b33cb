//! Table III — the space–ground vs air–ground comparison.

use crate::architecture::{AirGround, SpaceGround};
use crate::experiments::fidelity::FidelityExperiment;
use crate::scenario::Qntn;
use qntn_net::{SimConfig, SweepEngine};
use qntn_orbit::PerturbationModel;
use serde::{Deserialize, Serialize};

/// One row of Table III.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArchitectureMetrics {
    pub name: String,
    /// Coverage percentage P over the full day (paper Eq. 7).
    pub coverage_percent: f64,
    /// Served entanglement-distribution requests, percent.
    pub served_percent: f64,
    /// Average end-to-end entanglement fidelity of resolved requests.
    pub mean_fidelity: f64,
    /// Average per-link entanglement fidelity of resolved requests (the
    /// accounting under which the paper's Table III is reachable).
    pub mean_link_fidelity: f64,
}

/// The whole comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComparisonReport {
    pub space_ground: ArchitectureMetrics,
    pub air_ground: ArchitectureMetrics,
}

impl ComparisonReport {
    /// Run the paper's comparison: space–ground at `n` satellites vs the
    /// single-HAP air–ground network. `experiment` controls the workload
    /// (use [`FidelityExperiment::paper`] to match the paper).
    ///
    /// Coverage for the space segment is the full-day census (Fig. 6's P
    /// at size `n`) of the engine that also serves the request sweep.
    pub fn run(
        scenario: &Qntn,
        config: SimConfig,
        n: usize,
        experiment: FidelityExperiment,
    ) -> ComparisonReport {
        // Space-ground.
        let space_arch = SpaceGround::new(scenario, n, config, PerturbationModel::TwoBody);
        let engine = SweepEngine::new(space_arch.sim());
        let space_run = experiment.run_on(&engine);
        let space_ground = ArchitectureMetrics {
            name: format!("Space-Ground ({n} sats)"),
            coverage_percent: engine.coverage().percent(),
            served_percent: space_run.served_percent,
            mean_fidelity: space_run.mean_fidelity,
            mean_link_fidelity: space_run.mean_link_fidelity,
        };

        // Air-ground.
        let air_arch = AirGround::new(scenario, config);
        let air_run = experiment.run_air_ground(&air_arch);
        let air_ground = ArchitectureMetrics {
            name: "Air-Ground (1 HAP)".to_string(),
            coverage_percent: air_run.coverage_percent,
            served_percent: air_run.served_percent,
            mean_fidelity: air_run.mean_fidelity,
            mean_link_fidelity: air_run.mean_link_fidelity,
        };

        ComparisonReport {
            space_ground,
            air_ground,
        }
    }

    /// Coverage improvement of air over space, percentage points (the paper
    /// quotes 44.83).
    pub fn coverage_gain_points(&self) -> f64 {
        self.air_ground.coverage_percent - self.space_ground.coverage_percent
    }

    /// Served-request improvement, percentage points (paper: 42.25).
    pub fn served_gain_points(&self) -> f64 {
        self.air_ground.served_percent - self.space_ground.served_percent
    }

    /// Fidelity improvement (paper: 0.02).
    pub fn fidelity_gain(&self) -> f64 {
        self.air_ground.mean_fidelity - self.space_ground.mean_fidelity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_comparison_preserves_paper_ordering() {
        // A reduced comparison (24 satellites, light workload) must already
        // show the paper's qualitative result: air-ground dominates on all
        // three metrics.
        let q = Qntn::standard();
        let r = ComparisonReport::run(&q, SimConfig::default(), 24, FidelityExperiment::quick());
        assert!((r.air_ground.coverage_percent - 100.0).abs() < 1e-9);
        assert!((r.air_ground.served_percent - 100.0).abs() < 1e-9);
        assert!(r.coverage_gain_points() > 0.0, "{:?}", r);
        assert!(r.served_gain_points() > 0.0);
        assert!(
            r.fidelity_gain() > -0.02,
            "space should not beat air: {:?}",
            r
        );
        assert!(r.air_ground.mean_fidelity > 0.95);
    }
}
