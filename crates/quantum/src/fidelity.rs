//! Entanglement fidelity (the paper's Eq. 5) in both conventions.
//!
//! For states ρ, σ the Uhlmann transition probability is
//! `F(ρ,σ) = (Tr√(√ρ σ √ρ))²` (Jozsa's convention, the form printed in the
//! paper), and its square root `√F = Tr√(√ρ σ √ρ)` is the *square-root
//! fidelity*. As derived in the crate docs, the paper's reported numbers
//! (Fig. 5: η = 0.7 ⇒ F ≈ 0.92; Table III: 0.96 / 0.98) are only
//! consistent with the square-root convention, so the experiments report
//! [`sqrt_fidelity`] while [`fidelity`] remains available.

use crate::eigen::{hermitian_eigen, psd_sqrt};
use crate::state::{DensityMatrix, Ket};

/// Square-root (Uhlmann) fidelity `Tr√(√ρ σ √ρ)` between two mixed states.
pub fn sqrt_fidelity(rho: &DensityMatrix, sigma: &DensityMatrix) -> f64 {
    assert_eq!(rho.dim(), sigma.dim(), "state dimension mismatch");
    let sr = psd_sqrt(rho.matrix());
    let inner = &(&sr * sigma.matrix()) * &sr;
    // Tr√M = Σ √λᵢ over the (PSD) eigenvalues of M.
    hermitian_eigen(&inner)
        .values
        .iter()
        .map(|&v| v.max(0.0).sqrt())
        .sum::<f64>()
        .clamp(0.0, 1.0)
}

/// Jozsa fidelity `(Tr√(√ρ σ √ρ))²` — the square of [`sqrt_fidelity`].
pub fn fidelity(rho: &DensityMatrix, sigma: &DensityMatrix) -> f64 {
    let s = sqrt_fidelity(rho, sigma);
    s * s
}

/// Jozsa fidelity against a pure target: `⟨ψ|ρ|ψ⟩` (cheap special case).
pub fn fidelity_to_pure(rho: &DensityMatrix, psi: &Ket) -> f64 {
    rho.expectation(psi).clamp(0.0, 1.0)
}

/// Square-root fidelity against a pure target: `√⟨ψ|ρ|ψ⟩`.
pub fn sqrt_fidelity_to_pure(rho: &DensityMatrix, psi: &Ket) -> f64 {
    fidelity_to_pure(rho, psi).sqrt()
}

/// Closed form used throughout the QNTN experiments: the square-root
/// fidelity of one half of `|Φ+⟩` sent through an amplitude-damping channel
/// of transmissivity `eta` equals `(1 + √η)/2`.
///
/// This is the curve of the paper's Fig. 5 (η = 0.7 ⇒ 0.918 > 0.9;
/// η = 0 ⇒ 0.5; η = 1 ⇒ 1). Exactness against the full density-matrix
/// pipeline is covered by tests.
#[inline]
pub fn bell_ad_sqrt_fidelity(eta: f64) -> f64 {
    (1.0 + eta.sqrt()) / 2.0
}

/// Closed form for the Jozsa convention on the same state: `((1+√η)/2)²`.
#[inline]
pub fn bell_ad_fidelity(eta: f64) -> f64 {
    let s = bell_ad_sqrt_fidelity(eta);
    s * s
}

/// `(square-root, Jozsa)` fidelity of `|Φ+⟩` with one half sent through
/// `AD(eta)`, bit for bit equal to the density-matrix pipeline
/// `amplitude_damping(eta).on_qubit(1, 2).apply(&bell_phi_plus().density())`
/// followed by [`sqrt_fidelity_to_pure`] and [`fidelity_to_pure`].
///
/// The pipeline's dense 4×4 products touch five nonzero entries of the
/// damped state; this performs exactly those floating-point operations in
/// the pipeline's order, with no allocation. It keeps the pipeline's two
/// runtime checks: `eta` in `[0, 1]` and a unit-trace output. The closed
/// forms [`bell_ad_sqrt_fidelity`] and [`bell_ad_fidelity`] agree only to
/// rounding, so a caller whose outputs were recorded from the pipeline
/// uses this. The pipeline stays the oracle in this module's tests.
///
/// # Panics
/// Panics if `eta` is outside `[0, 1]`.
pub fn damped_bell_fidelities(eta: f64) -> (f64, f64) {
    assert!(
        (0.0..=1.0).contains(&eta),
        "transmissivity must be in [0,1], got {eta}"
    );
    // |Φ+⟩ = s(|00⟩ + |11⟩); its density matrix holds r = s·s at the four
    // corners. K₀ = I⊗diag(1, e) and K₁ = I⊗g|0⟩⟨1|.
    let s = 1.0 / 2.0_f64.sqrt();
    let r = s * s;
    let e = eta.sqrt();
    let g = (1.0 - eta).sqrt();
    // The damped state's nonzero entries, each as its K ρ K† product
    // rounds (ρ'₀₃ and ρ'₃₀ multiply in opposite orders).
    let rho_03 = r * e;
    let rho_30 = e * r;
    let rho_22 = (g * r) * g;
    let rho_33 = (e * r) * e;
    let trace = (r + rho_22) + rho_33;
    assert!(
        (trace - 1.0).abs() < 1e-6,
        "density matrix must have unit trace, got {trace}"
    );
    // ⟨Φ+|ρ'|Φ+⟩ = s·(ρ'|Φ+⟩)₀ + s·(ρ'|Φ+⟩)₃.
    let jozsa = (s * (r * s + rho_03 * s) + s * (rho_30 * s + rho_33 * s)).clamp(0.0, 1.0);
    (jozsa.sqrt(), jozsa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channels::amplitude_damping;
    use crate::state::{bell_phi_minus, bell_phi_plus, DensityMatrix, Ket};

    #[test]
    fn identical_states_have_unit_fidelity() {
        let rho = bell_phi_plus().density();
        assert!((fidelity(&rho, &rho) - 1.0).abs() < 1e-9);
        assert!((sqrt_fidelity(&rho, &rho) - 1.0).abs() < 1e-9);
        let mixed = DensityMatrix::maximally_mixed(2);
        assert!((fidelity(&mixed, &mixed) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn orthogonal_pure_states_have_zero_fidelity() {
        let a = Ket::basis(1, 0).density();
        let b = Ket::basis(1, 1).density();
        assert!(fidelity(&a, &b) < 1e-9);
    }

    #[test]
    fn symmetry() {
        let rho = amplitude_damping(0.5)
            .on_qubit(1, 2)
            .apply(&bell_phi_plus().density());
        let sigma = bell_phi_plus().density();
        let f1 = fidelity(&rho, &sigma);
        let f2 = fidelity(&sigma, &rho);
        assert!((f1 - f2).abs() < 1e-7);
    }

    #[test]
    fn pure_shortcut_matches_general_formula() {
        let bell = bell_phi_plus();
        for eta in [0.0, 0.2, 0.7, 0.95, 1.0] {
            let rho = amplitude_damping(eta).on_qubit(1, 2).apply(&bell.density());
            let general = fidelity(&rho, &bell.density());
            let shortcut = fidelity_to_pure(&rho, &bell);
            assert!(
                (general - shortcut).abs() < 1e-7,
                "eta={eta}: {general} vs {shortcut}"
            );
        }
    }

    #[test]
    fn closed_form_matches_density_matrix_pipeline() {
        let bell = bell_phi_plus();
        for k in 0..=20 {
            let eta = f64::from(k) / 20.0;
            let rho = amplitude_damping(eta).on_qubit(1, 2).apply(&bell.density());
            let measured = sqrt_fidelity_to_pure(&rho, &bell);
            let closed = bell_ad_sqrt_fidelity(eta);
            assert!(
                (measured - closed).abs() < 1e-10,
                "eta={eta}: measured {measured}, closed {closed}"
            );
        }
    }

    #[test]
    fn paper_calibration_point() {
        // Fig. 5: transmissivity 0.7 yields fidelity > 0.9.
        let f = bell_ad_sqrt_fidelity(0.7);
        assert!(f > 0.9, "{f}");
        assert!((f - 0.918_33).abs() < 1e-4, "{f}");
        // Whereas the Jozsa convention would fall below 0.9 — the reason we
        // report the square-root convention (see crate docs).
        assert!(bell_ad_fidelity(0.7) < 0.9);
    }

    #[test]
    fn fidelity_bounds() {
        let states = [
            bell_phi_plus().density(),
            bell_phi_minus().density(),
            DensityMatrix::maximally_mixed(2),
            amplitude_damping(0.3)
                .on_qubit(0, 2)
                .apply(&bell_phi_plus().density()),
        ];
        for a in &states {
            for b in &states {
                let f = fidelity(a, b);
                assert!((0.0..=1.0 + 1e-9).contains(&f), "{f}");
            }
        }
    }

    #[test]
    fn fidelity_between_mixed_states_known_value() {
        // F(I/2, |0⟩⟨0|) = 1/2 (qubit).
        let mixed = DensityMatrix::maximally_mixed(1);
        let zero = Ket::basis(1, 0).density();
        assert!((fidelity(&mixed, &zero) - 0.5).abs() < 1e-9);
        assert!((sqrt_fidelity(&mixed, &zero) - 0.5_f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn monotone_in_eta() {
        let bell = bell_phi_plus();
        let mut prev = -1.0;
        for k in 0..=50 {
            let eta = f64::from(k) / 50.0;
            let rho = amplitude_damping(eta).on_qubit(1, 2).apply(&bell.density());
            let f = sqrt_fidelity_to_pure(&rho, &bell);
            assert!(f >= prev - 1e-12, "eta={eta}");
            prev = f;
        }
    }

    #[test]
    fn endpoint_values() {
        assert!((bell_ad_sqrt_fidelity(0.0) - 0.5).abs() < 1e-15);
        assert!((bell_ad_sqrt_fidelity(1.0) - 1.0).abs() < 1e-15);
    }

    fn assert_kernel_matches_pipeline(eta: f64) {
        let bell = bell_phi_plus();
        let rho = amplitude_damping(eta).on_qubit(1, 2).apply(&bell.density());
        let pipeline = (
            sqrt_fidelity_to_pure(&rho, &bell),
            fidelity_to_pure(&rho, &bell),
        );
        let kernel = damped_bell_fidelities(eta);
        assert_eq!(
            (kernel.0.to_bits(), kernel.1.to_bits()),
            (pipeline.0.to_bits(), pipeline.1.to_bits()),
            "eta = {eta:e} ({:#018x})",
            eta.to_bits()
        );
    }

    #[test]
    fn damped_bell_kernel_matches_the_pipeline_bitwise() {
        // Endpoints, the smallest subnormal and normal, and the threshold.
        for eta in [0.0, 1.0, 5e-324, f64::MIN_POSITIVE, 1.0 - f64::EPSILON, 0.7] {
            assert_kernel_matches_pipeline(eta);
        }
        for k in 0..=10_000 {
            assert_kernel_matches_pipeline(f64::from(k) / 10_000.0);
        }
        // ±1,000 ulps around the threshold, its square and cube (paths of
        // threshold links) and a typical link.
        for centre in [0.7, 0.49, 0.343, 0.9_f64] {
            for ulps in 0..=2_000 {
                assert_kernel_matches_pipeline(f64::from_bits(centre.to_bits() - 1_000 + ulps));
            }
        }
        // What serving feeds it: products of 1–6 link η in [0.7, 1),
        // multiplied hop by hop. Link η follow a golden-ratio sequence.
        let mut x = 0.5_f64;
        for hops in 1..=6 {
            for _ in 0..500 {
                let mut eta = 1.0;
                for _ in 0..hops {
                    x = (x + 0.618_033_988_749_895) % 1.0;
                    eta *= 0.7 + 0.3 * x;
                }
                assert_kernel_matches_pipeline(eta);
            }
        }
    }

    #[test]
    #[should_panic(expected = "transmissivity must be in [0,1]")]
    fn damped_bell_kernel_rejects_eta_above_one() {
        damped_bell_fidelities(1.5);
    }
}
