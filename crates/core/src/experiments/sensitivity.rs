//! Calibration-sensitivity analysis.
//!
//! DESIGN.md documents four calibrated clear-sky constants plus the paper's
//! own threshold/aperture parameters. This experiment perturbs each by a
//! relative step and measures the coverage response — showing which knobs
//! the headline 55.00 % actually leans on (threshold and waist ratio) and
//! which are almost free (turbulence scale under ideal conditions).

use crate::architecture::SpaceGround;
use crate::scenario::Qntn;
use qntn_channel::atmosphere::Atmosphere;
use qntn_channel::params::FsoParams;
use qntn_channel::turbulence::TurbulenceProfile;
use qntn_net::{ContactWindows, SimConfig, SweepEngine};
use qntn_orbit::PerturbationModel;
use serde::{Deserialize, Serialize};

/// The tunable parameters of the calibration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Knob {
    /// Transmit beam waist ratio.
    WaistRatio,
    /// Receiver efficiency η_eff.
    ReceiverEfficiency,
    /// Sea-level extinction coefficient.
    Extinction,
    /// Turbulence profile scale.
    TurbulenceScale,
    /// The paper's transmissivity threshold (0.7).
    Threshold,
}

impl Knob {
    /// All knobs, in report order.
    pub fn all() -> [Knob; 5] {
        [
            Knob::WaistRatio,
            Knob::ReceiverEfficiency,
            Knob::Extinction,
            Knob::TurbulenceScale,
            Knob::Threshold,
        ]
    }

    /// Short label.
    pub fn label(&self) -> &'static str {
        match self {
            Knob::WaistRatio => "tx waist ratio",
            Knob::ReceiverEfficiency => "receiver efficiency",
            Knob::Extinction => "sea-level extinction",
            Knob::TurbulenceScale => "turbulence scale",
            Knob::Threshold => "link threshold",
        }
    }

    /// A config with this knob scaled by `factor` from the baseline.
    pub fn scaled(&self, factor: f64) -> SimConfig {
        let base = FsoParams::ideal();
        let mut config = SimConfig::default();
        match self {
            Knob::WaistRatio => {
                config.fso = FsoParams {
                    tx_waist_ratio: base.tx_waist_ratio * factor,
                    ..base
                };
            }
            Knob::ReceiverEfficiency => {
                config.fso = FsoParams {
                    receiver_efficiency: (base.receiver_efficiency * factor).min(1.0),
                    ..base
                };
            }
            Knob::Extinction => {
                config.fso = FsoParams {
                    atmosphere: Atmosphere::new(
                        base.atmosphere.sea_level_extinction_per_m * factor,
                        base.atmosphere.scale_height_m,
                    ),
                    ..base
                };
            }
            Knob::TurbulenceScale => {
                config.fso = FsoParams {
                    turbulence: TurbulenceProfile {
                        scale: base.turbulence.scale * factor,
                        ..base.turbulence
                    },
                    ..base
                };
            }
            Knob::Threshold => {
                config.threshold *= factor;
            }
        }
        config
    }
}

/// Coverage response of one knob.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KnobResponse {
    pub knob: Knob,
    /// Coverage with the knob at `1 − step`, percent.
    pub minus_percent: f64,
    /// Baseline coverage, percent.
    pub base_percent: f64,
    /// Coverage with the knob at `1 + step`, percent.
    pub plus_percent: f64,
}

impl KnobResponse {
    /// Central-difference sensitivity: percentage points of coverage per
    /// +10 % of the knob.
    pub fn points_per_10pct(&self, step: f64) -> f64 {
        (self.plus_percent - self.minus_percent) / (2.0 * step) * 0.1
    }
}

/// The full sensitivity table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SensitivityTable {
    /// Relative perturbation used (e.g. 0.1 = ±10 %).
    pub step: f64,
    pub satellites: usize,
    pub responses: Vec<KnobResponse>,
}

impl SensitivityTable {
    /// Compute with the given constellation size and perturbation step.
    pub fn compute(scenario: &Qntn, satellites: usize, step: f64) -> SensitivityTable {
        let ephemerides = SpaceGround::ephemerides(satellites, PerturbationModel::TwoBody);
        let shell = |config| SpaceGround::from_ephemerides(scenario, ephemerides.clone(), config);
        // Contact windows are geometry alone, so one precompute serves
        // every configuration.
        let base_shell = shell(SimConfig::default());
        let windows = ContactWindows::for_sim(base_shell.sim());
        let coverage = |arch: SpaceGround| {
            SweepEngine::with_windows(arch.sim(), windows.clone())
                .coverage()
                .percent()
        };
        let base = coverage(base_shell);
        let responses = Knob::all()
            .into_iter()
            .map(|knob| KnobResponse {
                knob,
                minus_percent: coverage(shell(knob.scaled(1.0 - step))),
                base_percent: base,
                plus_percent: coverage(shell(knob.scaled(1.0 + step))),
            })
            .collect();
        SensitivityTable {
            step,
            satellites,
            responses,
        }
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "sensitivity @ {} satellites, ±{:.0}% perturbation\n{:<22} {:>8} {:>8} {:>8} {:>12}\n",
            self.satellites,
            self.step * 100.0,
            "knob",
            "-step",
            "base",
            "+step",
            "pts/+10%"
        );
        for r in &self.responses {
            out.push_str(&format!(
                "{:<22} {:>8.2} {:>8.2} {:>8.2} {:>+12.2}\n",
                r.knob.label(),
                r.minus_percent,
                r.base_percent,
                r.plus_percent,
                r.points_per_10pct(self.step)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_scaling_produces_distinct_configs() {
        for knob in Knob::all() {
            let lo = knob.scaled(0.9);
            let hi = knob.scaled(1.1);
            assert_ne!(lo, hi, "{}", knob.label());
        }
        // Receiver efficiency clamps at 1.
        let cfg = Knob::ReceiverEfficiency.scaled(1.5);
        assert!(cfg.fso.receiver_efficiency <= 1.0);
    }

    #[test]
    fn sensitivity_signs_are_physical() {
        // Small constellation keeps this fast; the signs are what matter:
        // higher threshold -> less coverage; more extinction -> less
        // coverage; better receiver -> more coverage.
        let q = Qntn::standard();
        let table = SensitivityTable::compute(&q, 18, 0.1);
        for r in &table.responses {
            match r.knob {
                Knob::Threshold | Knob::Extinction => {
                    assert!(
                        r.plus_percent <= r.minus_percent + 1e-9,
                        "{}: +{} vs -{}",
                        r.knob.label(),
                        r.plus_percent,
                        r.minus_percent
                    );
                }
                Knob::ReceiverEfficiency => {
                    assert!(r.plus_percent >= r.minus_percent - 1e-9);
                }
                _ => {} // waist ratio and turbulence are non-monotone/flat
            }
        }
    }

    #[test]
    fn render_contains_all_knobs() {
        let q = Qntn::standard();
        let table = SensitivityTable::compute(&q, 6, 0.1);
        let text = table.render();
        for knob in Knob::all() {
            assert!(text.contains(knob.label()), "{text}");
        }
    }
}
