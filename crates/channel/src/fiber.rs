//! Fiber-optic channels (the paper's Eq. 1).
//!
//! `η = e^{−αl}`, with the attenuation coefficient specified in dB/km the
//! way the paper's Section IV does (0.15 dB/km, from its reference \[18\]).
//! Exponential loss is exactly why direct inter-city fiber fails in QNTN:
//! at 0.15 dB/km a 111 km TTU→ORNL run has η ≈ 0.02, far below the 0.7
//! threshold, while intra-LAN links of a few hundred metres sit at η ≈ 0.99.

use crate::units::{db_per_km_to_nepers_per_m, Db};
use serde::{Deserialize, Serialize};

/// The paper's fiber attenuation: 0.15 dB/km.
pub const PAPER_FIBER_ATTENUATION_DB_PER_KM: f64 = 0.15;

/// A point-to-point fiber channel.
///
/// ```
/// use qntn_channel::fiber::FiberChannel;
///
/// // A 20 km run at the paper's 0.15 dB/km is a 3 dB (half-power) loss:
/// let fiber = FiberChannel::paper(20_000.0);
/// assert!((fiber.loss_db().value() - 3.0).abs() < 1e-9);
/// assert!((fiber.transmissivity() - 0.5).abs() < 2e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FiberChannel {
    /// Physical length, metres.
    pub length_m: f64,
    /// Attenuation, dB/km.
    pub attenuation_db_per_km: f64,
}

impl FiberChannel {
    /// A fiber of `length_m` at the paper's 0.15 dB/km.
    pub fn paper(length_m: f64) -> FiberChannel {
        FiberChannel {
            length_m,
            attenuation_db_per_km: PAPER_FIBER_ATTENUATION_DB_PER_KM,
        }
    }

    /// A fiber with an explicit attenuation.
    pub fn new(length_m: f64, attenuation_db_per_km: f64) -> FiberChannel {
        assert!(length_m >= 0.0, "length must be non-negative");
        assert!(
            attenuation_db_per_km >= 0.0,
            "attenuation must be non-negative"
        );
        FiberChannel {
            length_m,
            attenuation_db_per_km,
        }
    }

    /// Transmissivity `η = e^{−αl}` (paper Eq. 1).
    pub fn transmissivity(&self) -> f64 {
        let alpha = db_per_km_to_nepers_per_m(self.attenuation_db_per_km);
        (-alpha * self.length_m).exp()
    }

    /// Total loss in dB.
    pub fn loss_db(&self) -> Db {
        Db::new(self.attenuation_db_per_km * self.length_m / 1000.0)
    }

    /// Maximum length (metres) that still meets a transmissivity threshold.
    pub fn max_length_for_threshold(attenuation_db_per_km: f64, threshold: f64) -> f64 {
        assert!((0.0..1.0).contains(&threshold) && threshold > 0.0);
        let alpha = db_per_km_to_nepers_per_m(attenuation_db_per_km);
        -threshold.ln() / alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_length_is_lossless() {
        assert_eq!(FiberChannel::paper(0.0).transmissivity(), 1.0);
    }

    #[test]
    fn known_loss_values() {
        // 0.15 dB/km × 20 km = 3 dB -> η ≈ 0.501.
        let f = FiberChannel::paper(20_000.0);
        assert!((f.loss_db().value() - 3.0).abs() < 1e-12);
        assert!((f.transmissivity() - 0.501_187).abs() < 1e-6);
    }

    #[test]
    fn intra_lan_links_are_nearly_lossless() {
        // A 300 m campus link: η ≈ 0.99.
        let f = FiberChannel::paper(300.0);
        assert!(f.transmissivity() > 0.989, "{}", f.transmissivity());
    }

    #[test]
    fn inter_city_fiber_fails_threshold() {
        // The QNTN motivation: ~111 km between Cookeville and Oak Ridge.
        let f = FiberChannel::paper(111_000.0);
        assert!(f.transmissivity() < 0.03, "{}", f.transmissivity());
        assert!(f.transmissivity() < 0.7, "below the paper's threshold");
    }

    #[test]
    fn monotone_decreasing_in_length() {
        let mut prev = 1.1;
        for km in [0.0, 1.0, 5.0, 20.0, 100.0] {
            let eta = FiberChannel::paper(km * 1000.0).transmissivity();
            assert!(eta < prev);
            prev = eta;
        }
    }

    #[test]
    fn max_length_for_threshold_inverts_transmissivity() {
        let l = FiberChannel::max_length_for_threshold(0.15, 0.7);
        let eta = FiberChannel::paper(l).transmissivity();
        assert!((eta - 0.7).abs() < 1e-9);
        // ~10.3 km: the fiber "reach" at the paper's threshold.
        assert!((l / 1000.0 - 10.32).abs() < 0.05, "{}", l / 1000.0);
    }

    #[test]
    fn multiplicativity_over_segments() {
        // η(a+b) = η(a)·η(b): the property the routing product rule rests on.
        let a = FiberChannel::paper(7_000.0).transmissivity();
        let b = FiberChannel::paper(5_000.0).transmissivity();
        let ab = FiberChannel::paper(12_000.0).transmissivity();
        assert!((a * b - ab).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_length() {
        FiberChannel::new(-1.0, 0.15);
    }
}
