//! # qntn-orbit — satellite dynamics for QNTN
//!
//! This crate replaces the paper's use of Ansys STK. The paper only consumed
//! STK output in one form: per-satellite "movement sheets" — positions
//! sampled every 30 seconds over one day — that the upgraded QuNetSim then
//! replayed. We generate the same artifact from first principles:
//!
//! - [`elements::Keplerian`] — classical orbital elements and derived
//!   quantities (period, mean motion).
//! - [`kepler`] — Kepler's equation solvers and anomaly conversions.
//! - [`propagator::Propagator`] — two-body propagation with optional J2
//!   secular perturbations (RAAN/argument-of-perigee drift), producing ECI
//!   states at arbitrary times.
//! - [`walker`] — Walker-Delta constellation builders, including the exact
//!   108-satellite incremental configuration of the paper's Table II.
//! - [`ephemeris`] — movement-sheet generation (30 s cadence, 24 h) and
//!   replay: ECEF positions, each sample's geodetic altitude resolved on
//!   first read.
//! - [`visibility`] — elevation-mask pass prediction and interval algebra
//!   (the coverage-period bookkeeping of the paper's Eq. 6–7).
//!
//! Everything is deterministic; the rayon-parallel paths produce bitwise
//! the same ephemerides as the sequential ones (tested).

pub mod contact;
pub mod elements;
pub mod ephemeris;
pub mod kepler;
pub mod numerical;
pub mod propagator;
pub mod spatial;
pub mod sun;
pub mod visibility;
pub mod walker;

pub use contact::{Contact, ContactPlan};
pub use elements::{Keplerian, EARTH_J2, EARTH_MU, EARTH_RADIUS_EQ_M};
pub use ephemeris::{Ephemeris, EphemerisSample};
pub use numerical::{propagate_numerical, ForceModel};
pub use propagator::{PerturbationModel, Propagator};
pub use spatial::GroundGrid;
pub use sun::{is_sunlit, sun_elevation, sun_position_eci, Twilight};
pub use visibility::{merge_intervals, total_duration, Interval, PassPredictor};
pub use walker::{
    paper_constellation, scaled_shell, WalkerDelta, PAPER_ALTITUDE_M, PAPER_INCLINATION_DEG,
    PAPER_SEMI_MAJOR_AXIS_M,
};
