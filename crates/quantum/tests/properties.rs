//! Property-based tests for the quantum substrate: channel/fidelity
//! invariants over randomized states and parameters.

use proptest::prelude::*;
use qntn_quantum::channels::{
    amplitude_damping, bit_flip, depolarizing, phase_damping, phase_flip,
};
use qntn_quantum::complex::c;
use qntn_quantum::eigen::{hermitian_eigen, psd_sqrt};
use qntn_quantum::fidelity::{
    bell_ad_sqrt_fidelity, damped_bell_fidelities, fidelity, fidelity_to_pure, sqrt_fidelity,
    sqrt_fidelity_to_pure,
};
use qntn_quantum::matrix::Matrix;
use qntn_quantum::memory::MemoryParams;
use qntn_quantum::state::{bell_phi_plus, DensityMatrix, Ket};

/// A random normalized single-qubit ket.
fn random_qubit() -> impl Strategy<Value = Ket> {
    (-1.0..1.0f64, -1.0..1.0f64, -1.0..1.0f64, -1.0..1.0f64).prop_filter_map(
        "non-null amplitude",
        |(a, b, cc, d)| {
            let k = Ket::new(vec![c(a, b), c(cc, d)]);
            if k.norm_sq() > 1e-6 {
                Some(k.normalized())
            } else {
                None
            }
        },
    )
}

/// A random two-qubit mixed state: convex mix of two pure product/entangled
/// states.
fn random_two_qubit_state() -> impl Strategy<Value = DensityMatrix> {
    (random_qubit(), random_qubit(), 0.0..1.0f64).prop_map(|(a, b, p)| {
        let pure = a.tensor(&b).density();
        let bell = bell_phi_plus().density();
        let m = pure.matrix().scale_real(p) + bell.matrix().scale_real(1.0 - p);
        DensityMatrix::new(m)
    })
}

/// `ProptestConfig` with `n` cases, overridable via `PROPTEST_CASES`
/// (nightly CI runs this suite with `PROPTEST_CASES=2048`).
fn cases_or(n: u32) -> ProptestConfig {
    ProptestConfig::with_cases(proptest::test_runner::env_case_count().unwrap_or(n))
}

proptest! {
    #![proptest_config(cases_or(64))]

    #[test]
    fn channels_are_trace_preserving(eta in 0.0..=1.0f64) {
        for ch in [
            amplitude_damping(eta),
            phase_damping(eta),
            depolarizing(eta),
            bit_flip(eta),
            phase_flip(eta),
        ] {
            prop_assert!(ch.is_trace_preserving(1e-10), "{}", ch.name());
        }
    }

    #[test]
    fn channel_output_is_valid_state(eta in 0.0..=1.0f64, rho in random_two_qubit_state()) {
        let out = amplitude_damping(eta).on_qubit(1, 2).apply(&rho);
        prop_assert!((out.matrix().trace().re - 1.0).abs() < 1e-9);
        prop_assert!(out.is_valid(1e-8));
        prop_assert!(out.purity() <= 1.0 + 1e-9);
    }

    #[test]
    fn ad_composition_is_product(e1 in 0.0..=1.0f64, e2 in 0.0..=1.0f64) {
        let composed = amplitude_damping(e1).compose_after(&amplitude_damping(e2));
        let direct = amplitude_damping(e1 * e2);
        let rho = Ket::plus().density();
        let a = composed.apply(&rho);
        let b = direct.apply(&rho);
        prop_assert!(a.matrix().approx_eq(b.matrix(), 1e-10));
    }

    #[test]
    fn fidelity_is_symmetric_and_bounded(
        rho in random_two_qubit_state(),
        sigma in random_two_qubit_state(),
    ) {
        let f1 = fidelity(&rho, &sigma);
        let f2 = fidelity(&sigma, &rho);
        prop_assert!((f1 - f2).abs() < 1e-6, "{f1} vs {f2}");
        prop_assert!((0.0..=1.0 + 1e-9).contains(&f1));
        // sqrt-fidelity dominates its square.
        let s = sqrt_fidelity(&rho, &sigma);
        prop_assert!(s + 1e-9 >= f1);
    }

    #[test]
    fn self_fidelity_is_one(rho in random_two_qubit_state()) {
        prop_assert!((fidelity(&rho, &rho) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn bell_closed_form_holds(eta in 0.0..=1.0f64) {
        let bell = bell_phi_plus();
        let damped = amplitude_damping(eta).on_qubit(1, 2).apply(&bell.density());
        let measured = sqrt_fidelity_to_pure(&damped, &bell);
        prop_assert!((measured - bell_ad_sqrt_fidelity(eta)).abs() < 1e-9);
    }

    #[test]
    fn damped_bell_kernel_is_the_pipeline_bitwise(eta in 0.0..=1.0f64) {
        let bell = bell_phi_plus();
        let damped = amplitude_damping(eta).on_qubit(1, 2).apply(&bell.density());
        let (sqrt_f, jozsa) = damped_bell_fidelities(eta);
        prop_assert_eq!(sqrt_f.to_bits(), sqrt_fidelity_to_pure(&damped, &bell).to_bits());
        prop_assert_eq!(jozsa.to_bits(), fidelity_to_pure(&damped, &bell).to_bits());
    }

    #[test]
    fn entanglement_measures_agree_on_separability(eta in 0.0..=1.0f64) {
        // Concurrence and negativity vanish together for two qubits
        // (PPT is necessary & sufficient at 2x2).
        let bell = bell_phi_plus();
        let damped = amplitude_damping(eta).on_qubit(0, 2).apply(&bell.density());
        let conc = damped.concurrence();
        let neg = damped.negativity();
        prop_assert!(conc >= -1e-9 && neg >= -1e-9);
        if conc < 1e-6 {
            prop_assert!(neg < 1e-4, "conc {conc} neg {neg}");
        }
        if neg < 1e-6 {
            prop_assert!(conc < 1e-4, "conc {conc} neg {neg}");
        }
    }

    #[test]
    fn eigen_reconstructs_random_hermitian(
        seed_vals in prop::collection::vec(-1.0..1.0f64, 32),
    ) {
        // Build a 4x4 Hermitian matrix from 32 random reals.
        let mut a = Matrix::zeros(4, 4);
        let mut it = seed_vals.into_iter();
        for i in 0..4 {
            a[(i, i)] = c(it.next().unwrap(), 0.0);
        }
        for i in 0..4 {
            for j in (i + 1)..4 {
                let z = c(it.next().unwrap(), it.next().unwrap());
                a[(i, j)] = z;
                a[(j, i)] = z.conj();
            }
        }
        let e = hermitian_eigen(&a);
        prop_assert!(e.vectors.is_unitary(1e-8));
        let mut lam = Matrix::zeros(4, 4);
        for (i, &v) in e.values.iter().enumerate() {
            lam[(i, i)] = c(v, 0.0);
        }
        let back = &(&e.vectors * &lam) * &e.vectors.dagger();
        prop_assert!(back.approx_eq(&a, 1e-8));
        // Trace and Frobenius norm are spectral invariants.
        let tr: f64 = e.values.iter().sum();
        prop_assert!((tr - a.trace().re).abs() < 1e-8);
        let fro2: f64 = e.values.iter().map(|v| v * v).sum();
        prop_assert!((fro2.sqrt() - a.frobenius_norm()).abs() < 1e-8);
    }

    #[test]
    fn psd_sqrt_squares_back(rho in random_two_qubit_state()) {
        let s = psd_sqrt(rho.matrix());
        prop_assert!(s.is_hermitian(1e-8));
        prop_assert!((&s * &s).approx_eq(rho.matrix(), 1e-7));
    }

    #[test]
    fn partial_trace_preserves_trace(rho in random_two_qubit_state(), q in 0usize..2) {
        let reduced = rho.partial_trace(q);
        prop_assert!((reduced.matrix().trace().re - 1.0).abs() < 1e-9);
        prop_assert!(reduced.is_valid(1e-8));
    }

    #[test]
    fn purity_bounds(rho in random_two_qubit_state()) {
        let p = rho.purity();
        prop_assert!(p <= 1.0 + 1e-9, "{p}");
        prop_assert!(p >= 0.25 - 1e-9, "{p}"); // 1/d for d = 4
    }
}

proptest! {
    #![proptest_config(cases_or(64))]

    /// Holding longer never improves fidelity, and every value stays
    /// clamped to the physical band `[1/2, f0]`.
    #[test]
    fn hold_fidelity_is_monotone_non_increasing_and_clamped(
        f0 in 0.5..1.0f64,
        t2 in 0.01..2000.0f64,
        a in 0u32..200,
        b in 0u32..200,
    ) {
        let m = MemoryParams::with_t2_steps(t2);
        let (short, long) = (a.min(b), a.max(b));
        let fs = m.hold_fidelity(f0, short);
        let fl = m.hold_fidelity(f0, long);
        prop_assert!(fl <= fs, "hold {long} steps beat {short}: {fl} > {fs}");
        for f in [fs, fl] {
            prop_assert!((0.5..=f0).contains(&f), "{f} outside [0.5, {f0}]");
        }
    }

    /// Zero hold is exact — bitwise `f0`, not merely close — so the
    /// zero-horizon differential contract can hold without epsilons; and
    /// one step of an ever-better memory converges continuously to it.
    #[test]
    fn hold_fidelity_is_exact_then_continuous_at_zero(f0 in 0.5..1.0f64) {
        for t2 in [0.5, 7.0, 1e3, f64::INFINITY] {
            let m = MemoryParams::with_t2_steps(t2);
            prop_assert_eq!(m.hold_fidelity(f0, 0).to_bits(), f0.to_bits());
        }
        // One held step loses at most (f0 - 1/2)(1 - e^{-1/T2}) -> 0 as
        // T2 grows: the decay has no jump at zero hold time.
        for t2 in [1e2, 1e4, 1e6] {
            let lost = f0 - MemoryParams::with_t2_steps(t2).hold_fidelity(f0, 1);
            let bound = (f0 - 0.5) * (1.0 - (-1.0 / t2).exp()) + 1e-12;
            prop_assert!(lost <= bound, "T2 {t2}: lost {lost} > {bound}");
        }
    }

    /// A better memory is never worse: fidelity after a fixed hold is
    /// monotone non-decreasing in T2, with the ideal memory as the limit.
    #[test]
    fn hold_fidelity_is_monotone_in_t2(
        f0 in 0.5..1.0f64,
        t2_lo in 0.01..500.0f64,
        factor in 1.0..50.0f64,
        steps in 1u32..100,
    ) {
        let worse = MemoryParams::with_t2_steps(t2_lo).hold_fidelity(f0, steps);
        let better = MemoryParams::with_t2_steps(t2_lo * factor).hold_fidelity(f0, steps);
        let ideal = MemoryParams::ideal().hold_fidelity(f0, steps);
        prop_assert!(worse <= better + 1e-15);
        prop_assert!(better <= ideal + 1e-15);
        prop_assert_eq!(ideal.to_bits(), f0.to_bits());
    }

    /// The eta-space equivalence the routing layer relies on: decaying the
    /// transmissivity by `hold_eta_factor` and then measuring equals
    /// decaying the measured fidelity directly. This is why hold edges can
    /// carry plain eta multipliers through a quantum-free routing crate.
    #[test]
    fn hold_eta_factor_commutes_with_the_fidelity_map(
        eta in 0.0..1.0f64,
        t2 in 0.1..500.0f64,
        steps in 0u32..100,
    ) {
        let m = MemoryParams::with_t2_steps(t2);
        let via_eta = bell_ad_sqrt_fidelity(eta * m.hold_eta_factor(steps));
        let via_f = m.hold_fidelity(bell_ad_sqrt_fidelity(eta), steps);
        prop_assert!(
            (via_eta - via_f).abs() < 1e-12,
            "eta {eta}, T2 {t2}, {steps} steps: {via_eta} vs {via_f}"
        );
    }
}
