//! Night-operations extension: darkness-gated quantum links.
//!
//! Every free-space quantum-link demonstration to date (Micius included)
//! operates only while the ground station is dark — daytime sky radiance
//! swamps single-photon detectors. The paper's ideal-conditions model has no
//! such constraint; this experiment applies it and reports how much of each
//! architecture's nominal coverage survives. It is the sharpest known
//! deviation between the paper's idealized results and a deployable system:
//! darkness gating caps *any* FSO architecture near the dark fraction of the
//! day (~30-40 % at Tennessee latitudes), erasing most of the air-ground
//! architecture's 100 % headline.

use crate::architecture::{default_epoch, SpaceGround};
use crate::scenario::Qntn;
use qntn_net::{CoverageAnalyzer, SimConfig, SweepEngine};
use qntn_orbit::ephemeris::{PAPER_DURATION_S, PAPER_STEP_S};
use qntn_orbit::{PerturbationModel, Twilight};
use serde::{Deserialize, Serialize};

/// Result of the darkness-gated analysis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NightReport {
    /// Twilight convention used.
    pub twilight_deg: f64,
    /// Fraction of the day all three cities are dark, percent.
    pub dark_percent: f64,
    /// Space-ground nominal coverage, percent.
    pub space_nominal_percent: f64,
    /// Space-ground coverage with darkness gating, percent.
    pub space_night_percent: f64,
    /// Air-ground coverage with darkness gating, percent (nominal is 100).
    pub air_night_percent: f64,
}

/// The night-operations experiment.
#[derive(Debug, Clone, Copy)]
pub struct NightOps {
    /// How dark "dark" must be.
    pub twilight: Twilight,
    /// Constellation size for the space-ground side.
    pub satellites: usize,
}

impl NightOps {
    /// The default extension setup: astronomical darkness, 108 satellites.
    pub fn standard() -> NightOps {
        NightOps {
            twilight: Twilight::Astronomical,
            satellites: 108,
        }
    }

    /// Run over the paper's one-day window.
    pub fn run(&self, scenario: &Qntn, config: SimConfig) -> NightReport {
        let dark = dark_mask(scenario, self.twilight);
        let dark_steps = dark.iter().filter(|&&d| d).count();

        // Space-ground nominal and gated coverage share one engine day.
        let arch = SpaceGround::new(
            scenario,
            self.satellites,
            config,
            PerturbationModel::TwoBody,
        );
        let nominal_flags = SweepEngine::new(arch.sim()).connectivity_flags();
        let gated_flags: Vec<bool> = nominal_flags
            .iter()
            .zip(&dark)
            .map(|(&c, &d)| c && d)
            .collect();

        let nominal = CoverageAnalyzer::from_flags(nominal_flags, PAPER_STEP_S);
        let gated = CoverageAnalyzer::from_flags(gated_flags, PAPER_STEP_S);
        // Air-ground is up whenever the cities are dark (HAP links are
        // static and above threshold; validated elsewhere).
        let air = CoverageAnalyzer::from_flags(dark.clone(), PAPER_STEP_S);

        NightReport {
            twilight_deg: self.twilight.threshold().to_degrees(),
            dark_percent: 100.0 * dark_steps as f64 / dark.len() as f64,
            space_nominal_percent: nominal.percent(),
            space_night_percent: gated.percent(),
            air_night_percent: air.percent(),
        }
    }
}

/// Per step of the paper's one-day window, whether every city is dark
/// under `twilight`. A LAN's centroid stands for the LAN: the sun moves
/// 0.125° per step and a LAN spans under 3 km.
pub(crate) fn dark_mask(scenario: &Qntn, twilight: Twilight) -> Vec<bool> {
    let epoch = default_epoch();
    let steps = (PAPER_DURATION_S / PAPER_STEP_S) as usize;
    (0..steps)
        .map(|k| {
            let at = epoch.plus_seconds(k as f64 * PAPER_STEP_S);
            (0..scenario.lans.len())
                .all(|lan| twilight.is_dark(scenario.lan_centroid(lan).with_alt(300.0), at))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn darkness_gating_only_reduces_coverage() {
        let q = Qntn::standard();
        let report = NightOps {
            twilight: Twilight::Civil,
            satellites: 12,
        }
        .run(&q, SimConfig::default());
        assert!(report.space_night_percent <= report.space_nominal_percent + 1e-9);
        assert!(report.space_night_percent <= report.dark_percent + 1e-9);
        assert!(report.air_night_percent <= 100.0);
        // Air-ground gated coverage equals the dark fraction exactly.
        assert!((report.air_night_percent - report.dark_percent).abs() < 1e-9);
    }

    #[test]
    fn tennessee_summer_dark_fraction_is_plausible() {
        // default_epoch is July 1: astronomical darkness for roughly
        // 4.5-8.5 hours -> 19-35% of the day.
        let q = Qntn::standard();
        let report = NightOps {
            twilight: Twilight::Astronomical,
            satellites: 6,
        }
        .run(&q, SimConfig::default());
        assert!(
            (15.0..40.0).contains(&report.dark_percent),
            "dark {}%",
            report.dark_percent
        );
        assert!((report.twilight_deg + 18.0).abs() < 1e-9);
    }

    #[test]
    fn stricter_twilight_means_less_darkness() {
        let q = Qntn::standard();
        let config = SimConfig::default();
        let civil = NightOps {
            twilight: Twilight::Civil,
            satellites: 6,
        }
        .run(&q, config);
        let astro = NightOps {
            twilight: Twilight::Astronomical,
            satellites: 6,
        }
        .run(&q, config);
        assert!(astro.dark_percent < civil.dark_percent);
    }
}
