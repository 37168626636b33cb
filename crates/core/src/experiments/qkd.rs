//! QKD-service extension: secret-key capability of each architecture.
//!
//! The regional networks the paper cites (\[12\]–\[14\]) deliver QKD, not raw
//! entanglement. This experiment asks whether QNTN's distributed pairs are
//! QKD-grade: the paper's request sweep is served once per request through
//! the serving walk ([`serve_batches`]), and for every served request the
//! distributed pair's BBM92 key fraction is computed from its exact density
//! matrix. The striking result
//! (pinned by tests): at the paper's η = 0.7 link threshold, a two-hop
//! relay path's pair carries **zero** one-way key — entanglement
//! "distribution" at F ≈ 0.9 does not imply key delivery, so a QKD-grade
//! QNTN needs a stricter threshold or purification.

use crate::architecture::{AirGround, SpaceGround};
use crate::experiments::serve_batches;
use qntn_net::requests::sample_steps;
use qntn_net::{QuantumNetworkSim, SweepEngine};
use qntn_quantum::channels::amplitude_damping;
use qntn_quantum::qkd::bbm92_key_fraction;
use qntn_quantum::state::bell_phi_plus;
use qntn_routing::RouteMetric;
use serde::{Deserialize, Serialize};

/// Key statistics for one architecture.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QkdReport {
    /// Requests attempted.
    pub attempted: usize,
    /// Requests served with *any* entanglement.
    pub served: usize,
    /// Served requests whose pair yields a positive key fraction.
    pub key_capable: usize,
    /// Mean key fraction over served requests (zeros included).
    pub mean_key_fraction: f64,
}

impl QkdReport {
    /// Percentage of all requests that could run QKD.
    pub fn key_capable_percent(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            100.0 * self.key_capable as f64 / self.attempted as f64
        }
    }
}

/// The QKD-service experiment.
#[derive(Debug, Clone, Copy)]
pub struct QkdExperiment {
    pub sampled_steps: usize,
    pub requests_per_step: usize,
    pub seed: u64,
}

impl QkdExperiment {
    /// A light default (the key fractions are deterministic given the
    /// routes; sampling density only affects the satellite geometry mix).
    pub fn standard() -> QkdExperiment {
        QkdExperiment {
            sampled_steps: 20,
            requests_per_step: 50,
            seed: 2024,
        }
    }

    /// Evaluate a simulator.
    pub fn run(&self, sim: &QuantumNetworkSim) -> QkdReport {
        let steps = sample_steps(sim.steps(), self.sampled_steps);
        let bell = bell_phi_plus().density();
        let mut report = QkdReport {
            attempted: 0,
            served: 0,
            key_capable: 0,
            mean_key_fraction: 0.0,
        };
        let mut key_sum = 0.0;
        let outcomes = serve_batches(
            &SweepEngine::new(sim),
            &steps,
            self.requests_per_step,
            self.seed,
            RouteMetric::PaperInverseEta,
        );
        report.attempted = outcomes.len();
        for d in outcomes.iter().filter_map(|o| o.distribution()) {
            report.served += 1;
            let pair = amplitude_damping(d.eta).on_qubit(1, 2).apply(&bell);
            let r = bbm92_key_fraction(&pair);
            key_sum += r;
            if r > 0.0 {
                report.key_capable += 1;
            }
        }
        if report.served > 0 {
            report.mean_key_fraction = key_sum / report.served as f64;
        }
        report
    }

    /// Evaluate the air-ground architecture.
    pub fn run_air_ground(&self, arch: &AirGround) -> QkdReport {
        self.run(arch.sim())
    }

    /// Evaluate the space-ground architecture.
    pub fn run_space_ground(&self, arch: &SpaceGround) -> QkdReport {
        self.run(arch.sim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Qntn;
    use qntn_net::SimConfig;
    use qntn_orbit::PerturbationModel;

    fn quick() -> QkdExperiment {
        QkdExperiment {
            sampled_steps: 3,
            requests_per_step: 15,
            seed: 7,
        }
    }

    #[test]
    fn air_ground_pairs_are_key_capable() {
        // HAP paths (η ≈ 0.92) sit comfortably above the key cliff.
        let q = Qntn::standard();
        let arch = AirGround::standard(&q);
        let r = quick().run_air_ground(&arch);
        assert_eq!(r.served, r.attempted);
        assert_eq!(r.key_capable, r.served, "every HAP pair should carry key");
        assert!(r.mean_key_fraction > 0.3, "{}", r.mean_key_fraction);
    }

    #[test]
    fn space_ground_pairs_mostly_fail_qkd() {
        // Satellite 2-hop paths (η ≈ 0.63) sit *below* the one-way key
        // cliff: served ≠ key-capable, the experiment's headline.
        let q = Qntn::standard();
        let arch = SpaceGround::new(&q, 36, SimConfig::default(), PerturbationModel::TwoBody);
        let r = QkdExperiment {
            sampled_steps: 20,
            requests_per_step: 25,
            seed: 7,
        }
        .run_space_ground(&arch);
        if r.served > 0 {
            assert!(
                r.key_capable < r.served / 2,
                "served {} but key-capable {}",
                r.served,
                r.key_capable
            );
        }
    }

    #[test]
    fn percentages_consistent() {
        let q = Qntn::standard();
        let arch = AirGround::standard(&q);
        let r = quick().run_air_ground(&arch);
        assert!((r.key_capable_percent() - 100.0).abs() < 1e-9);
        assert!(r.mean_key_fraction <= 1.0);
    }
}
