//! Decibel ↔ linear conversions.
//!
//! Losses in the optics literature mix conventions freely (the paper quotes
//! fiber attenuation in dB/km but writes Eq. 1 with a natural-log
//! coefficient); these helpers keep the workspace honest about which one a
//! number is in. A total loss is a [`Db`], so it cannot meet a linear η
//! without going through [`db_to_linear`].

use std::fmt;
use std::ops::Neg;

/// A power ratio in decibels.
///
/// The value is private: a `Db` leaves dB space only through
/// [`db_to_linear`] or an explicit [`Db::value`], so multiplying a loss
/// with a linear transmissivity, or passing it where an η is expected, is
/// a compile error rather than a wrong budget:
///
/// ```
/// use qntn_channel::units::{db_to_linear, Db};
/// fn couple(eta: f64) -> f64 { eta }
/// let (loss_db, eta) = (Db::new(3.0), 0.9);
/// let total = db_to_linear(-loss_db) * eta;
/// let coupled = couple(db_to_linear(-loss_db));
/// ```
///
/// ```compile_fail,E0369
/// use qntn_channel::units::{db_to_linear, Db};
/// fn couple(eta: f64) -> f64 { eta }
/// let (loss_db, eta) = (Db::new(3.0), 0.9);
/// let total = loss_db * eta;
/// let coupled = couple(db_to_linear(-loss_db));
/// ```
///
/// ```compile_fail,E0308
/// use qntn_channel::units::{db_to_linear, Db};
/// fn couple(eta: f64) -> f64 { eta }
/// let (loss_db, eta) = (Db::new(3.0), 0.9);
/// let total = db_to_linear(-loss_db) * eta;
/// let coupled = couple(loss_db);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Db(f64);

impl Db {
    /// A ratio of `db` decibels.
    #[inline]
    pub const fn new(db: f64) -> Db {
        Db(db)
    }

    /// The decibel value as a plain number, for reports and tests.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl Neg for Db {
    type Output = Db;

    /// A loss of `x` dB is a gain of `−x` dB.
    #[inline]
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

impl fmt::Display for Db {
    /// Formats the number like an `f64`, honouring width and precision.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

/// Convert a power ratio in dB to linear (`10^(dB/10)`).
#[inline]
pub fn db_to_linear(db: Db) -> f64 {
    10.0_f64.powf(db.0 / 10.0)
}

/// Convert a linear power ratio to dB (`10·log₁₀`).
#[inline]
pub fn linear_to_db(linear: f64) -> Db {
    Db(10.0 * linear.log10())
}

/// Convert an attenuation coefficient in dB/km to nepers/m (the `α` of the
/// paper's `η = e^{−αl}` with `l` in metres).
#[inline]
pub fn db_per_km_to_nepers_per_m(db_per_km: f64) -> f64 {
    db_per_km / (1000.0 * 10.0 / std::f64::consts::LN_10)
}

/// Convert nepers/m to dB/km.
#[inline]
pub fn nepers_per_m_to_db_per_km(nepers_per_m: f64) -> f64 {
    nepers_per_m * 1000.0 * 10.0 / std::f64::consts::LN_10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_linear_roundtrip() {
        for db in [-30.0, -3.0, 0.0, 3.0, 10.0] {
            assert!((linear_to_db(db_to_linear(Db::new(db))).value() - db).abs() < 1e-12);
        }
    }

    #[test]
    fn known_values() {
        assert!((db_to_linear(Db::new(-10.0)) - 0.1).abs() < 1e-15);
        assert!((db_to_linear(Db::new(-3.0)) - 0.501_187).abs() < 1e-6);
        assert!((linear_to_db(0.5).value() + 3.0103).abs() < 1e-4);
    }

    #[test]
    fn nepers_conversion_roundtrip() {
        let alpha = db_per_km_to_nepers_per_m(0.15);
        assert!((nepers_per_m_to_db_per_km(alpha) - 0.15).abs() < 1e-12);
        // 0.15 dB/km ≈ 3.454e-5 nepers/m.
        assert!((alpha - 3.4539e-5).abs() < 1e-8, "{alpha}");
    }

    #[test]
    fn conversion_consistency() {
        // exp(-α·L) must equal 10^(-dB·L/10) for matched coefficients.
        let db_per_km = 0.15;
        let alpha = db_per_km_to_nepers_per_m(db_per_km);
        for l_km in [1.0, 10.0, 50.0, 111.0] {
            let via_exp = (-alpha * l_km * 1000.0).exp();
            let via_db = db_to_linear(Db::new(-db_per_km * l_km));
            assert!((via_exp - via_db).abs() < 1e-12, "L={l_km}");
        }
    }
}
