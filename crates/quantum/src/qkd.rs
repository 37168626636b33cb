//! Entanglement-based QKD (BBM92/E91) key rates.
//!
//! The deployed systems the paper positions itself against (\[12\]–\[14\] in
//! its related work) are QKD networks; this module turns any distributed
//! pair ρ_AB into the corresponding secret-key figures:
//!
//! - [`qber_z`] / [`qber_x`] — quantum bit error rates when both parties
//!   measure in the Z (computational) or X (Hadamard) basis.
//! - [`bbm92_key_fraction`] — the asymptotic secret-key fraction
//!   `r = max(0, 1 − h₂(Q_Z) − h₂(Q_X))` (one-way post-processing,
//!   Shor–Preskill bound).
//!
//! For the paper's amplitude-damped pairs the closed forms are
//! `Q_Z = (1−η)/2` and `Q_X = (2 − η − 2√η)/4 · ... ` — the tests pin the
//! exact values through the density-matrix machinery instead of trusting a
//! transcription.

use crate::gates::hadamard;
use crate::state::DensityMatrix;

/// Binary (Shannon) entropy `h₂(p)` in bits, with `h₂(0) = h₂(1) = 0`.
pub fn binary_entropy(p: f64) -> f64 {
    if p <= 0.0 || p >= 1.0 {
        return 0.0;
    }
    -p * p.log2() - (1.0 - p) * (1.0 - p).log2()
}

/// Probability that Z-basis measurements of the two qubits disagree.
pub fn qber_z(rho: &DensityMatrix) -> f64 {
    assert_eq!(rho.dim(), 4, "QBER is defined for two-qubit pairs");
    let m = rho.matrix();
    (m[(1, 1)].re + m[(2, 2)].re).clamp(0.0, 1.0)
}

/// Probability that X-basis measurements of the two qubits disagree.
pub fn qber_x(rho: &DensityMatrix) -> f64 {
    assert_eq!(rho.dim(), 4, "QBER is defined for two-qubit pairs");
    // Rotate both qubits into the X basis, then read the Z-basis QBER.
    let h2q = &hadamard(0, 2) * &hadamard(1, 2);
    let rotated = DensityMatrix::new(&(&h2q * rho.matrix()) * &h2q.dagger());
    qber_z(&rotated)
}

/// Asymptotic BBM92 secret-key fraction (per sifted pair).
pub fn bbm92_key_fraction(rho: &DensityMatrix) -> f64 {
    (1.0 - binary_entropy(qber_z(rho)) - binary_entropy(qber_x(rho))).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::{amplitude_damping, depolarizing};
    use crate::state::{bell_phi_plus, DensityMatrix};

    fn damped(eta: f64) -> DensityMatrix {
        amplitude_damping(eta)
            .on_qubit(1, 2)
            .apply(&bell_phi_plus().density())
    }

    #[test]
    fn binary_entropy_landmarks() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
        assert!(
            (binary_entropy(0.11) - 0.4999).abs() < 1e-3,
            "the QKD-famous 11%"
        );
        // Symmetric.
        assert!((binary_entropy(0.3) - binary_entropy(0.7)).abs() < 1e-12);
    }

    #[test]
    fn perfect_pair_has_zero_qber_and_unit_key() {
        let bell = bell_phi_plus().density();
        assert!(qber_z(&bell) < 1e-12);
        assert!(qber_x(&bell) < 1e-12);
        assert!((bbm92_key_fraction(&bell) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn damped_pair_qber_z_closed_form() {
        // One-sided AD(η): Q_Z = (1-η)/2.
        for eta in [0.0, 0.3, 0.7, 0.95, 1.0] {
            let q = qber_z(&damped(eta));
            assert!((q - (1.0 - eta) / 2.0).abs() < 1e-12, "eta {eta}: {q}");
        }
    }

    #[test]
    fn damped_pair_qber_x_closed_form() {
        // X-basis disagreement for one-sided AD(η):
        // ρ' = |φ⟩⟨φ| + (1−η)/2 |10⟩⟨10|, φ = (|00⟩+√η|11⟩)/√2.
        // In the X basis: Q_X = (1+η−2√η)/4 + (1−η)/4 = (2 − η − 2√η + η − η)/4
        // → verified numerically here against the analytic expansion.
        for eta in [0.0, 0.25, 0.5, 0.81, 1.0] {
            let q = qber_x(&damped(eta));
            let s = eta.sqrt();
            let expect = (1.0 + eta - 2.0 * s) / 4.0 + (1.0 - eta) / 4.0;
            assert!((q - expect).abs() < 1e-10, "eta {eta}: {q} vs {expect}");
        }
    }

    #[test]
    fn key_fraction_decreases_with_damping() {
        let mut prev = 1.1;
        for eta in [1.0, 0.95, 0.9, 0.8, 0.7, 0.6] {
            let r = bbm92_key_fraction(&damped(eta));
            assert!(r < prev + 1e-12, "eta {eta}");
            prev = r;
        }
    }

    #[test]
    fn key_rate_dies_at_the_papers_threshold() {
        // A notable finding: at the paper's η = 0.7 threshold the QBERs
        // (Q_Z = 15 %, Q_X ≈ 8.2 %) already cost more than one bit of
        // entropy, so one-way BBM92 yields *zero* key — entanglement
        // distribution at F ≈ 0.92 is not automatically QKD-grade.
        assert_eq!(bbm92_key_fraction(&damped(0.7)), 0.0);
        // A modestly better link recovers a positive rate.
        let r = bbm92_key_fraction(&damped(0.8));
        assert!(r > 0.1 && r < 0.5, "{r}");
    }

    #[test]
    fn the_key_cliff_sits_just_above_the_papers_threshold() {
        // The one-way key vanishes at η ≈ 0.708: a link at the 0.7
        // threshold carries none, and a 0.72 one already does. Served
        // space-ground paths (two links, η 0.52–0.75) straddle it.
        assert_eq!(bbm92_key_fraction(&damped(0.70)), 0.0);
        assert!(bbm92_key_fraction(&damped(0.72)) > 0.0);
    }

    #[test]
    fn key_dies_below_some_eta() {
        // Far below threshold no key survives.
        assert_eq!(bbm92_key_fraction(&damped(0.2)), 0.0);
    }

    #[test]
    fn depolarizing_pair_matches_11_percent_lore() {
        // Isotropic noise: key = 0 at QBER ≈ 11% (both bases equal).
        let bell = bell_phi_plus().density();
        let mut dead = None;
        for k in 0..=40 {
            let p = f64::from(k) * 0.01;
            let rho = depolarizing(p).on_qubit(0, 2).apply(&bell);
            let qz = qber_z(&rho);
            let qx = qber_x(&rho);
            assert!((qz - qx).abs() < 1e-10, "isotropic noise: equal QBERs");
            if bbm92_key_fraction(&rho) == 0.0 && dead.is_none() {
                dead = Some(qz);
            }
        }
        let q_dead = dead.expect("key must die somewhere below p = 0.4");
        assert!((q_dead - 0.11).abs() < 0.01, "key died at QBER {q_dead}");
    }

    #[test]
    fn qber_bounds() {
        for eta in [0.0, 0.5, 1.0] {
            let rho = damped(eta);
            for q in [qber_z(&rho), qber_x(&rho)] {
                assert!((0.0..=1.0).contains(&q));
            }
        }
    }
}
