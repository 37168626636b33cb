//! Itemized FSO link budgets.

use crate::units::{linear_to_db, Db};
use serde::{Deserialize, Serialize};

/// Every factor of one FSO link's transmissivity, for reports and debugging
/// calibration. Produced by [`crate::fso::FsoChannel::budget`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkBudget {
    /// Slant range, metres.
    pub range_m: f64,
    /// Elevation used by the attenuation formulas, radians.
    pub elevation_rad: f64,
    /// Transmit beam waist, metres.
    pub beam_waist_m: f64,
    /// Diffraction-only spot radius at the receiver, metres.
    pub diffraction_spot_m: f64,
    /// Slant-path Rytov variance.
    pub rytov_variance: f64,
    /// Turbulence long-term spread factor `T ≥ 1` (spot area multiplier).
    pub turbulence_spread: f64,
    /// Long-term spot radius `w_lt = w_d·√T`, metres.
    pub long_term_spot_m: f64,
    /// Aperture-coupling transmissivity (diffraction + turbulence), the
    /// paper's η_th.
    pub eta_th: f64,
    /// Atmospheric extinction transmissivity, the paper's η_atm.
    pub eta_atm: f64,
    /// Receiver efficiency, the paper's η_eff.
    pub eta_eff: f64,
}

impl LinkBudget {
    /// Total transmissivity η = η_th·η_atm·η_eff (paper Eq. 2).
    #[inline]
    pub fn eta_total(&self) -> f64 {
        self.eta_th * self.eta_atm * self.eta_eff
    }

    /// Total loss in dB.
    pub fn loss_db(&self) -> Db {
        -linear_to_db(self.eta_total())
    }
}

impl std::fmt::Display for LinkBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "FSO link budget @ {:.1} km, elev {:.1}°",
            self.range_m / 1000.0,
            self.elevation_rad.to_degrees()
        )?;
        writeln!(
            f,
            "  beam: w0 = {:.3} m -> diffraction spot {:.3} m, turbulence x{:.3} -> {:.3} m",
            self.beam_waist_m,
            self.diffraction_spot_m,
            self.turbulence_spread,
            self.long_term_spot_m
        )?;
        writeln!(
            f,
            "  eta_th = {:.4}  eta_atm = {:.4}  eta_eff = {:.4}",
            self.eta_th, self.eta_atm, self.eta_eff
        )?;
        write!(
            f,
            "  eta = {:.4}  ({:.2} dB loss)",
            self.eta_total(),
            self.loss_db()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LinkBudget {
        LinkBudget {
            range_m: 700_000.0,
            elevation_rad: 0.6,
            beam_waist_m: 0.48,
            diffraction_spot_m: 0.6,
            rytov_variance: 0.02,
            turbulence_spread: 1.05,
            long_term_spot_m: 0.615,
            eta_th: 0.85,
            eta_atm: 0.95,
            eta_eff: 0.995,
        }
    }

    #[test]
    fn total_is_product() {
        let b = sample();
        assert!((b.eta_total() - 0.85 * 0.95 * 0.995).abs() < 1e-12);
    }

    #[test]
    fn loss_db_positive_for_lossy_link() {
        let b = sample();
        let loss = b.loss_db().value();
        assert!(loss > 0.0);
        // η ≈ 0.8034 -> ≈ 0.95 dB.
        assert!((loss - 0.951).abs() < 0.01, "{loss}");
    }

    #[test]
    fn display_contains_key_fields() {
        let s = format!("{}", sample());
        assert!(s.contains("700.0 km"), "{s}");
        assert!(s.contains("eta_th"), "{s}");
        assert!(s.contains("dB loss"), "{s}");
    }
}
