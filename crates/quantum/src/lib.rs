//! # qntn-quantum — quantum states, channels and fidelity
//!
//! The paper degrades entangled states with an **amplitude-damping channel**
//! whose damping parameter is the optical transmissivity η (its Eq. 3–4) and
//! scores links by **entanglement fidelity** against the ideal Bell state
//! (its Eq. 5). This crate implements that machinery from scratch:
//!
//! - [`complex::Complex`] — complex arithmetic (no external crates).
//! - [`matrix::Matrix`] — dense complex matrices: products, adjoints,
//!   tensor (Kronecker) products, traces.
//! - [`state`] — kets, density matrices, Bell states, partial trace.
//! - [`eigen`] — complex Hermitian eigendecomposition (cyclic Jacobi),
//!   which powers the matrix square root inside Uhlmann fidelity.
//! - [`channels`] — Kraus-operator channels: amplitude damping (the paper's
//!   Eq. 3), plus phase damping, depolarizing and Pauli channels for
//!   extensions; single-qubit channels lift onto any qubit of a register.
//! - [`fidelity()`] — Uhlmann/Jozsa fidelity and the square-root fidelity,
//!   plus [`fidelity::damped_bell_fidelities`], the allocation-free kernel
//!   served pairs are realized with, bit-identical to the density-matrix
//!   pipeline.
//!
//! ## Fidelity convention
//!
//! For one half of a Bell pair through AD(η), the Jozsa fidelity
//! (Tr√(√ρ′σ√ρ′))² equals ((1+√η)/2)² — only 0.843 at η = 0.7 — while the
//! *square-root* fidelity Tr√(√ρ′σ√ρ′) equals (1+√η)/2 = 0.918, matching
//! the paper's Fig. 5 calibration ("transmissivity of 0.7 yields fidelity
//! greater than 90%"). The QNTN experiments therefore report
//! [`fidelity::sqrt_fidelity`]; both are available and tested against the
//! closed forms.

pub mod channels;
pub mod choi;
pub mod complex;
pub mod eigen;
pub mod fidelity;
pub mod gates;
pub mod matrix;
pub mod memory;
pub mod nonlocality;
pub mod protocols;
pub mod qkd;
pub mod state;

pub use channels::{amplitude_damping, depolarizing, phase_damping, KrausChannel};
pub use choi::{choi_matrix, diagnose, ChannelDiagnostics};
pub use complex::Complex;
pub use eigen::hermitian_eigen;
pub use fidelity::{fidelity, sqrt_fidelity};
pub use matrix::Matrix;
pub use memory::{ClassMemory, MemoryParams};
pub use nonlocality::{chsh_max, violates_chsh};
pub use protocols::{entanglement_swap, purify_bbpssw, teleport_fidelity};
pub use qkd::{bbm92_key_fraction, qber_x, qber_z};
pub use state::{bell_phi_plus, DensityMatrix, Ket};
