//! Orbit propagation: elements at epoch → ECI state at time t.
//!
//! Two models:
//!
//! - [`PerturbationModel::TwoBody`]: pure Keplerian motion. The anomaly
//!   advances at the mean motion; the orbital plane is fixed in inertial
//!   space.
//! - [`PerturbationModel::J2Secular`]: adds the dominant perturbation at
//!   500 km — Earth-oblateness-driven secular drift of the node (Ω̇), the
//!   perigee (ω̇) and the mean anomaly (Ṁ correction). Over the paper's
//!   24-hour window the nodal drift at i = 53° is about −4.7°/day, enough to
//!   shift pass times by minutes; the coverage *statistics* are insensitive
//!   to it (ablation A3), which justifies STK↔our-propagator substitution.

use crate::elements::{Keplerian, EARTH_J2, EARTH_MU, EARTH_RADIUS_EQ_M};
use crate::kepler;
use qntn_geo::{Epoch, Vec3};
use serde::{Deserialize, Serialize};

/// Which force model to propagate with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PerturbationModel {
    /// Pure two-body (point-mass Earth).
    #[default]
    TwoBody,
    /// Two-body plus secular J2 drift of Ω, ω and M.
    J2Secular,
}

/// Position and velocity in the Earth-centred inertial frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EciState {
    /// Position, metres.
    pub position: Vec3,
    /// Velocity, metres/second.
    pub velocity: Vec3,
}

/// A propagator bound to one satellite's epoch elements.
#[derive(Debug, Clone, Copy)]
pub struct Propagator {
    elements: Keplerian,
    epoch: Epoch,
    model: PerturbationModel,
    mean_anomaly_epoch: f64,
    mean_motion: f64,
    raan_rate: f64,
    argp_rate: f64,
}

impl Propagator {
    /// Bind `elements` (valid at `epoch`) to a force `model`.
    pub fn new(elements: Keplerian, epoch: Epoch, model: PerturbationModel) -> Self {
        let n = elements.mean_motion();
        let (raan_rate, argp_rate, n_eff) = match model {
            PerturbationModel::TwoBody => (0.0, 0.0, n),
            PerturbationModel::J2Secular => {
                let p =
                    elements.semi_major_m * (1.0 - elements.eccentricity * elements.eccentricity);
                let factor = 1.5 * EARTH_J2 * (EARTH_RADIUS_EQ_M / p).powi(2) * n;
                let (si, ci) = elements.inclination.sin_cos();
                let raan_rate = -factor * ci;
                let argp_rate = factor * (2.0 - 2.5 * si * si);
                // Secular mean-motion correction (Brouwer first order).
                let eta = (1.0 - elements.eccentricity * elements.eccentricity).sqrt();
                let n_eff = n
                    * (1.0
                        + 1.5
                            * EARTH_J2
                            * (EARTH_RADIUS_EQ_M / p).powi(2)
                            * eta
                            * (1.0 - 1.5 * si * si));
                (raan_rate, argp_rate, n_eff)
            }
        };
        Propagator {
            elements,
            epoch,
            model,
            mean_anomaly_epoch: elements.mean_anomaly(),
            mean_motion: n_eff,
            raan_rate,
            argp_rate,
        }
    }

    /// The epoch elements this propagator was built from.
    #[inline]
    pub fn elements(&self) -> &Keplerian {
        &self.elements
    }

    /// The force model in use.
    #[inline]
    pub fn model(&self) -> PerturbationModel {
        self.model
    }

    /// Nodal (RAAN) drift rate, rad/s — zero for two-body.
    #[inline]
    pub fn raan_rate(&self) -> f64 {
        self.raan_rate
    }

    /// ECI state at `epoch + dt_s` seconds: the position formula the
    /// movement sheets sample, with the velocity rotated on top.
    pub fn propagate(&self, dt_s: f64) -> EciState {
        let k = &self.elements;
        let mut orientation = self.orientation();
        let (position, (snu, cnu)) = self.position(dt_s, &mut orientation);
        let p_semi = k.semi_major_m * (1.0 - k.eccentricity * k.eccentricity);
        let vel_coeff = (EARTH_MU / p_semi).sqrt();
        let v_pf = Vec3::new(-vel_coeff * snu, vel_coeff * (k.eccentricity + cnu), 0.0);
        EciState {
            position,
            velocity: orientation.apply(v_pf),
        }
    }

    /// A fresh [`Orientation`] memo, primed with the epoch angles.
    pub(crate) fn orientation(&self) -> Orientation {
        let k = &self.elements;
        Orientation {
            argp: SinCos::of(k.arg_perigee),
            inclination: SinCos::of(k.inclination),
            raan: SinCos::of(k.raan),
        }
    }

    /// The one position formula: ECI position at `epoch + dt_s` seconds,
    /// plus the sine and cosine of the true anomaly there. `orientation`
    /// is left holding this time's rotation, so a caller can rotate the
    /// velocity with it too.
    pub(crate) fn position(&self, dt_s: f64, orientation: &mut Orientation) -> (Vec3, (f64, f64)) {
        let k = &self.elements;
        let m = self.mean_anomaly_epoch + self.mean_motion * dt_s;
        let nu = kepler::mean_to_true(m, k.eccentricity);
        // r = a(1 − e·cos E) is `a` bit for bit when e = ±0, so a circular
        // orbit skips the true → eccentric round trip that only feeds it.
        let r_mag = if k.eccentricity == 0.0 {
            k.semi_major_m
        } else {
            let e_anom = kepler::true_to_eccentric(nu, k.eccentricity);
            k.semi_major_m * (1.0 - k.eccentricity * e_anom.cos())
        };
        let (snu, cnu) = nu.sin_cos();
        let r_pf = Vec3::new(r_mag * cnu, r_mag * snu, 0.0);

        // Rotate perifocal → ECI: Rz(Ω) Rx(i) Rz(ω), with secular drift.
        orientation.argp.set(k.arg_perigee + self.argp_rate * dt_s);
        orientation.raan.set(k.raan + self.raan_rate * dt_s);
        (orientation.apply(r_pf), (snu, cnu))
    }

    /// ECI state at an absolute `epoch`.
    pub fn propagate_to(&self, at: Epoch) -> EciState {
        self.propagate(at.seconds_since(&self.epoch))
    }

    /// The epoch the elements refer to.
    #[inline]
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }
}

/// The perifocal → ECI rotation Rz(Ω) Rx(i) Rz(ω) as the sines and cosines
/// of its three angles, each memoized by the angle's bits. A sampler keeps
/// one per satellite: under [`PerturbationModel::TwoBody`] every angle is
/// constant across a sheet and costs one `sin_cos` per sheet; under
/// [`PerturbationModel::J2Secular`] Ω and ω drift, so they miss and are
/// recomputed on every row. `sin_cos` is a pure function of its argument's
/// bits, so a hit returns exactly what a fresh call would.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Orientation {
    argp: SinCos,
    inclination: SinCos,
    raan: SinCos,
}

impl Orientation {
    /// `v` rotated by Rz(Ω) Rx(i) Rz(ω): the float operations of
    /// `v.rotate_z(ω).rotate_x(i).rotate_z(Ω)` with each `sin_cos` read
    /// from the memo.
    fn apply(&self, v: Vec3) -> Vec3 {
        let v = rotate_z(v, self.argp.sin_cos);
        let (s, c) = self.inclination.sin_cos;
        let v = Vec3::new(v.x, c * v.y - s * v.z, s * v.y + c * v.z);
        rotate_z(v, self.raan.sin_cos)
    }
}

/// One angle's memoized `sin_cos`.
#[derive(Debug, Clone, Copy)]
struct SinCos {
    bits: u64,
    sin_cos: (f64, f64),
}

impl SinCos {
    fn of(angle: f64) -> SinCos {
        SinCos {
            bits: angle.to_bits(),
            sin_cos: angle.sin_cos(),
        }
    }

    /// Hold `angle`, recomputing only when its bits changed.
    #[inline]
    fn set(&mut self, angle: f64) {
        if angle.to_bits() != self.bits {
            *self = SinCos::of(angle);
        }
    }
}

/// `v` rotated about +Z by the angle whose `(sin, cos)` is given: the float
/// operations of `Vec3::rotate_z` with the `sin_cos` hoisted out.
#[inline]
pub(crate) fn rotate_z(v: Vec3, (s, c): (f64, f64)) -> Vec3 {
    Vec3::new(c * v.x - s * v.y, s * v.x + c * v.y, v.z)
}

/// The per-sample formula `propagate` had before its position formula was
/// shared with the sheet sampler, kept verbatim as the oracle that the
/// propagator and sheet tests pin bits against.
#[cfg(test)]
impl Propagator {
    pub(crate) fn propagate_oracle(&self, dt_s: f64) -> EciState {
        let k = &self.elements;
        let m = self.mean_anomaly_epoch + self.mean_motion * dt_s;
        let nu = kepler::mean_to_true(m, k.eccentricity);
        let e_anom = kepler::true_to_eccentric(nu, k.eccentricity);
        let p_semi = k.semi_major_m * (1.0 - k.eccentricity * k.eccentricity);
        let r_mag = k.semi_major_m * (1.0 - k.eccentricity * e_anom.cos());
        let (snu, cnu) = nu.sin_cos();
        let r_pf = Vec3::new(r_mag * cnu, r_mag * snu, 0.0);
        let vel_coeff = (EARTH_MU / p_semi).sqrt();
        let v_pf = Vec3::new(-vel_coeff * snu, vel_coeff * (k.eccentricity + cnu), 0.0);
        let raan = k.raan + self.raan_rate * dt_s;
        let argp = k.arg_perigee + self.argp_rate * dt_s;
        let rotate = |v: Vec3| v.rotate_z(argp).rotate_x(k.inclination).rotate_z(raan);
        EciState {
            position: rotate(r_pf),
            velocity: rotate(v_pf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leo() -> Keplerian {
        Keplerian::circular(6_871_000.0, 53.0_f64.to_radians(), 1.0, 0.5)
    }

    fn prop(model: PerturbationModel) -> Propagator {
        Propagator::new(leo(), Epoch::J2000, model)
    }

    #[test]
    fn radius_is_constant_for_circular_orbit() {
        let p = prop(PerturbationModel::TwoBody);
        for k in 0..200 {
            let s = p.propagate(f64::from(k) * 30.0);
            assert!(
                (s.position.norm() - 6_871_000.0).abs() < 1e-3,
                "t={k} r={}",
                s.position.norm()
            );
        }
    }

    #[test]
    fn speed_matches_vis_viva() {
        let p = prop(PerturbationModel::TwoBody);
        let v_circ = (EARTH_MU / 6_871_000.0_f64).sqrt();
        for k in 0..50 {
            let s = p.propagate(f64::from(k) * 100.0);
            assert!((s.velocity.norm() - v_circ).abs() < 1e-3);
        }
    }

    #[test]
    fn energy_and_angular_momentum_conserved() {
        // Eccentric orbit: check the two-body invariants over a full period.
        let k = Keplerian {
            eccentricity: 0.2,
            ..leo()
        };
        let p = Propagator::new(k, Epoch::J2000, PerturbationModel::TwoBody);
        let e0 = k.specific_energy();
        let h0 = k.specific_angular_momentum();
        for step in 0..100 {
            let s = p.propagate(f64::from(step) * k.period_s() / 100.0);
            let energy = s.velocity.norm_sq() / 2.0 - EARTH_MU / s.position.norm();
            let h = s.position.cross(s.velocity).norm();
            assert!((energy - e0).abs() / e0.abs() < 1e-10, "step {step}");
            assert!((h - h0).abs() / h0 < 1e-10, "step {step}");
        }
    }

    #[test]
    fn returns_to_start_after_one_period() {
        let p = prop(PerturbationModel::TwoBody);
        let t = leo().period_s();
        let s0 = p.propagate(0.0);
        let s1 = p.propagate(t);
        assert!(
            (s1.position - s0.position).norm() < 1.0,
            "{}",
            (s1.position - s0.position).norm()
        );
        assert!((s1.velocity - s0.velocity).norm() < 1e-3);
    }

    #[test]
    fn velocity_is_consistent_with_finite_difference() {
        let p = prop(PerturbationModel::TwoBody);
        let dt = 1e-3;
        for t in [0.0, 1000.0, 3000.0] {
            let s = p.propagate(t);
            let splus = p.propagate(t + dt);
            let fd = (splus.position - s.position) / dt;
            assert!(
                (fd - s.velocity).norm() < 0.1,
                "t={t}: {}",
                (fd - s.velocity).norm()
            );
        }
    }

    #[test]
    fn inclination_bounds_z_extent() {
        let p = prop(PerturbationModel::TwoBody);
        let max_z = 6_871_000.0 * 53.0_f64.to_radians().sin();
        let mut reached = 0.0_f64;
        for k in 0..570 {
            let s = p.propagate(f64::from(k) * 10.0);
            assert!(s.position.z.abs() <= max_z + 1.0);
            reached = reached.max(s.position.z.abs());
        }
        // Over one period the satellite should actually reach |z| ≈ max.
        assert!(reached > max_z * 0.999, "reached {reached} of {max_z}");
    }

    #[test]
    fn j2_raan_regresses_for_prograde_orbit() {
        let p = prop(PerturbationModel::J2Secular);
        assert!(p.raan_rate() < 0.0, "prograde orbits regress");
        // At 500 km, i=53°: Ω̇ ≈ -4.6 to -4.8 deg/day.
        let deg_per_day = p.raan_rate().to_degrees() * 86_400.0;
        assert!((-5.2..-4.2).contains(&deg_per_day), "{deg_per_day}");
    }

    #[test]
    fn j2_preserves_radius_for_circular_orbit() {
        let p = prop(PerturbationModel::J2Secular);
        for k in 0..100 {
            let s = p.propagate(f64::from(k) * 300.0);
            assert!((s.position.norm() - 6_871_000.0).abs() < 1e-3);
        }
    }

    #[test]
    fn two_body_and_j2_diverge_over_a_day() {
        let p2 = prop(PerturbationModel::TwoBody);
        let pj = prop(PerturbationModel::J2Secular);
        let d = (p2.propagate(86_400.0).position - pj.propagate(86_400.0).position).norm();
        // Nodal drift of ~4.7° at orbital radius is hundreds of kilometres.
        assert!(d > 100_000.0, "{d}");
    }

    /// `propagate` shares the sampler's position formula (with its e = 0
    /// shortcut and memoized rotation) and must still return the oracle's
    /// bits, position and velocity, circular or eccentric, under both
    /// force models.
    #[test]
    fn propagate_matches_the_per_sample_oracle() {
        for model in [PerturbationModel::TwoBody, PerturbationModel::J2Secular] {
            for k in [
                leo(),
                Keplerian {
                    semi_major_m: 9_000_000.0,
                    eccentricity: 0.2,
                    arg_perigee: 0.7,
                    ..leo()
                },
            ] {
                let p = Propagator::new(k, Epoch::J2000, model);
                for step in 0..500 {
                    let t = f64::from(step) * 173.0 - 3_000.0;
                    let (got, want) = (p.propagate(t), p.propagate_oracle(t));
                    for (a, b) in [(got.position, want.position), (got.velocity, want.velocity)] {
                        let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
                        assert_eq!(bits(a), bits(b), "{model:?} e={} t={t}", k.eccentricity);
                    }
                }
            }
        }
    }

    #[test]
    fn propagate_to_absolute_epoch() {
        let p = prop(PerturbationModel::TwoBody);
        let s1 = p.propagate(123.0);
        let s2 = p.propagate_to(Epoch::J2000.plus_seconds(123.0));
        assert!((s1.position - s2.position).norm() < 1e-9);
    }
}
