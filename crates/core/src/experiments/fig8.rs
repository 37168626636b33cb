//! Fig. 8 — average entanglement fidelity of resolved requests vs the
//! number of satellites. A thin projection of [`super::sweep`].

use crate::experiments::sweep::ConstellationSweep;
use serde::{Deserialize, Serialize};

/// The average-fidelity series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FidelitySeries {
    pub satellites: Vec<usize>,
    pub mean_fidelity: Vec<f64>,
    pub mean_link_fidelity: Vec<f64>,
    pub mean_eta: Vec<f64>,
}

impl FidelitySeries {
    /// Project the series out of a finished sweep.
    pub fn from_sweep(sweep: &ConstellationSweep) -> FidelitySeries {
        FidelitySeries {
            satellites: sweep.points.iter().map(|p| p.satellites).collect(),
            mean_fidelity: sweep.points.iter().map(|p| p.stats.mean_fidelity).collect(),
            mean_link_fidelity: sweep
                .points
                .iter()
                .map(|p| p.stats.mean_link_fidelity)
                .collect(),
            mean_eta: sweep.points.iter().map(|p| p.stats.mean_eta).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::{ConstellationSweep, SweepSettings};
    use crate::scenario::Qntn;
    use qntn_net::SimConfig;
    use qntn_orbit::PerturbationModel;

    #[test]
    fn fidelity_consistent_with_eta() {
        let sweep = ConstellationSweep::run(
            &Qntn::standard(),
            SimConfig::default(),
            &[18],
            SweepSettings::quick(),
            PerturbationModel::TwoBody,
        );
        let s = FidelitySeries::from_sweep(&sweep);
        assert_eq!(s.satellites, vec![18]);
        if sweep.points[0].stats.served() > 0 {
            // Jensen: mean F ≥ F(mean η) is not guaranteed in general, but
            // the concave (1+√η)/2 makes mean-of-F ≥ F-of-mean; check the
            // weaker sanity bounds instead.
            let f = s.mean_fidelity[0];
            let eta = s.mean_eta[0];
            assert!((0.5..=1.0).contains(&f));
            assert!((0.0..=1.0).contains(&eta));
            assert!(f >= (1.0 + eta.sqrt()) / 2.0 - 0.05);
        }
    }
}
