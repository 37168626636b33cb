//! HAP-stability extension: pointing jitter from platform vibration.
//!
//! The paper flags "vibrations, which can impact the stability and accuracy
//! of entanglement distribution" as the air-ground architecture's key open
//! problem. This experiment sweeps the transmitter pointing jitter of the
//! HAP and reports where the architecture's headline numbers collapse:
//! jitter broadens the received spot (variance `2(σ_p·L)²`), dropping
//! transmissivity below threshold once σ_p·L approaches the beam radius.

use crate::architecture::AirGround;
use crate::experiments::fidelity::{ArchReport, FidelityExperiment};
use crate::scenario::Qntn;
use qntn_channel::params::FsoParams;
use qntn_net::SimConfig;
use serde::{Deserialize, Serialize};

/// One point of the jitter sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StabilityPoint {
    /// RMS pointing jitter, microradians.
    pub jitter_urad: f64,
    /// The air-ground report at that jitter.
    pub report: ArchReport,
}

/// The jitter sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StabilitySweep {
    pub points: Vec<StabilityPoint>,
}

impl StabilitySweep {
    /// Default sweep: 0 to 30 µrad (a 78 km HAP link's beam radius is
    /// ~0.2 m ≈ 2.6 µrad of pointing, so this spans harmless → fatal).
    pub fn standard_jitters_urad() -> Vec<f64> {
        vec![0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0]
    }

    /// Run over the given jitter values (µrad).
    pub fn run(
        scenario: &Qntn,
        jitters_urad: &[f64],
        experiment: FidelityExperiment,
    ) -> StabilitySweep {
        let points = jitters_urad
            .iter()
            .map(|&urad| {
                let config = SimConfig {
                    fso: FsoParams::ideal().with_pointing_jitter(urad * 1e-6),
                    ..SimConfig::default()
                };
                let arch = AirGround::new(scenario, config);
                StabilityPoint {
                    jitter_urad: urad,
                    report: experiment.run_air_ground(&arch),
                }
            })
            .collect();
        StabilitySweep { points }
    }

    /// The largest jitter that still serves every request, µrad.
    pub fn tolerable_jitter_urad(&self) -> Option<f64> {
        self.points
            .iter()
            .filter(|p| p.report.served_percent >= 100.0 - 1e-9)
            .map(|p| p.jitter_urad)
            .fold(None, |acc, j| Some(acc.map_or(j, |a: f64| a.max(j))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sweep(jitters: &[f64]) -> StabilitySweep {
        StabilitySweep::run(
            &Qntn::standard(),
            jitters,
            FidelityExperiment {
                sampled_steps: 2,
                requests_per_step: 15,
                ..FidelityExperiment::quick()
            },
        )
    }

    #[test]
    fn fidelity_degrades_monotonically_with_jitter() {
        let s = quick_sweep(&[0.0, 2.0, 8.0]);
        for w in s.points.windows(2) {
            let (a, b) = (&w[0].report, &w[1].report);
            assert!(b.served_percent <= a.served_percent + 1e-9);
            if a.stats.served() > 0 && b.stats.served() > 0 {
                assert!(b.mean_eta <= a.mean_eta + 1e-9);
            }
        }
    }

    #[test]
    fn zero_jitter_recovers_the_paper_baseline() {
        let s = quick_sweep(&[0.0]);
        let r = &s.points[0].report;
        assert!((r.served_percent - 100.0).abs() < 1e-9);
        assert!(r.mean_fidelity > 0.95);
    }

    #[test]
    fn large_jitter_kills_the_network() {
        let s = quick_sweep(&[50.0]);
        assert_eq!(s.points[0].report.served_percent, 0.0);
        assert_eq!(s.tolerable_jitter_urad(), None);
    }

    #[test]
    fn tolerable_jitter_is_single_digit_microradians() {
        let s = quick_sweep(&[0.0, 1.0, 30.0]);
        let tol = s.tolerable_jitter_urad().expect("zero jitter always works");
        assert!((1.0..30.0).contains(&tol), "{tol}");
    }
}
