//! Fig. 6 — coverage percentage of the space–ground network vs the number
//! of satellites (6, 12, …, 108 over one day).

use crate::experiments::paper_constellation_sizes;
use crate::experiments::visibility::LanVisibility;
use crate::scenario::Qntn;
use qntn_net::{CoverageAnalyzer, CoverageReport, SimConfig};
use qntn_orbit::ephemeris::PAPER_STEP_S;
use qntn_orbit::PerturbationModel;
use serde::{Deserialize, Serialize};

/// One row of the Fig. 6 series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoveragePoint {
    pub satellites: usize,
    pub coverage_percent: f64,
    pub coverage_minutes: f64,
    pub intervals: usize,
}

/// The whole sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoverageSweep {
    pub points: Vec<CoveragePoint>,
}

impl CoverageSweep {
    /// Run the paper's sweep (6..108 step 6, one day at 30 s cadence).
    pub fn paper(scenario: &Qntn, config: SimConfig) -> CoverageSweep {
        Self::run(
            scenario,
            config,
            &paper_constellation_sizes(),
            PerturbationModel::TwoBody,
        )
    }

    /// Run for arbitrary sizes / force model. One 108-satellite ephemeris
    /// generation is shared across all points (the constellation grows by
    /// prefix, per Table II).
    pub fn run(
        scenario: &Qntn,
        config: SimConfig,
        sizes: &[usize],
        model: PerturbationModel,
    ) -> CoverageSweep {
        let max_n = sizes.iter().copied().max().unwrap_or(0);
        let ephemerides = crate::architecture::SpaceGround::ephemerides(max_n, model);
        let cube = LanVisibility::compute(scenario, config, &ephemerides);
        let points = sizes
            .iter()
            .map(|&n| {
                let report = CoverageAnalyzer::from_flags(cube.coverage_flags(n), PAPER_STEP_S);
                CoveragePoint {
                    satellites: n,
                    coverage_percent: report.percent(),
                    coverage_minutes: report.coverage_minutes(),
                    intervals: report.interval_count(),
                }
            })
            .collect();
        CoverageSweep { points }
    }

    /// Coverage of the largest constellation in the sweep.
    pub fn final_point(&self) -> &CoveragePoint {
        self.points.last().expect("sweep is never empty")
    }

    /// The air-ground reference report: full coverage by construction
    /// (validated against the simulator in the comparison experiment).
    pub fn air_ground_reference(steps: usize) -> CoverageReport {
        CoverageAnalyzer::from_flags(vec![true; steps], PAPER_STEP_S)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced sweep (shared by several assertions because the full
    /// 108-satellite day is the expensive part of the suite).
    fn small_sweep() -> CoverageSweep {
        CoverageSweep::run(
            &Qntn::standard(),
            SimConfig::default(),
            &[6, 18, 36],
            PerturbationModel::TwoBody,
        )
    }

    #[test]
    fn coverage_grows_with_constellation_size() {
        let s = small_sweep();
        assert_eq!(s.points.len(), 3);
        for w in s.points.windows(2) {
            assert!(
                w[1].coverage_percent >= w[0].coverage_percent,
                "{} sats: {}%, {} sats: {}%",
                w[0].satellites,
                w[0].coverage_percent,
                w[1].satellites,
                w[1].coverage_percent
            );
        }
        // Small constellations cover only a small slice of the day.
        assert!(
            s.points[0].coverage_percent < 30.0,
            "{}",
            s.points[0].coverage_percent
        );
    }

    #[test]
    fn minutes_and_percent_consistent() {
        for p in &small_sweep().points {
            assert!((p.coverage_minutes - p.coverage_percent / 100.0 * 1440.0).abs() < 1e-6);
        }
    }

    #[test]
    fn air_ground_reference_is_full_day() {
        let r = CoverageSweep::air_ground_reference(2880);
        assert!((r.percent() - 100.0).abs() < 1e-12);
        assert!((r.coverage_minutes() - 1440.0).abs() < 1e-9);
    }
}
