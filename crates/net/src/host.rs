//! Network hosts: ground stations, satellites and HAPs.
//!
//! Mirrors the paper's QuNetSim upgrade, where the `Host` class gained
//! location data and `Satellite`/`HAP` subclasses: satellites replay a
//! movement sheet ([`qntn_orbit::Ephemeris`]); HAPs and ground stations are
//! fixed.

use qntn_geo::{Geodetic, Vec3, WGS84};
use qntn_orbit::Ephemeris;

/// Identifier of a local-area network (0 = TTU, 1 = ORNL, 2 = EPB in the
/// standard scenario; the simulator itself is agnostic).
pub type LanId = usize;

/// What kind of platform a host is.
#[derive(Debug, Clone)]
pub enum HostKind {
    /// A ground station belonging to one LAN, at a fixed position.
    Ground { lan: LanId, position: Geodetic },
    /// A high-altitude platform hovering at a fixed position.
    Hap { position: Geodetic },
    /// A satellite replaying a movement sheet.
    Satellite { ephemeris: Ephemeris },
}

/// One node of the quantum network.
#[derive(Debug, Clone)]
pub struct Host {
    /// Human-readable name (e.g. "TTU-3", "SAT-041", "HAP-1").
    pub name: String,
    /// Platform kind and position source.
    pub kind: HostKind,
    /// FSO aperture diameter, metres (1.2 for ground/satellites, 0.3 for
    /// HAPs in the paper's setup).
    pub aperture_m: f64,
}

impl Host {
    /// A ground station.
    pub fn ground(
        name: impl Into<String>,
        lan: LanId,
        position: Geodetic,
        aperture_m: f64,
    ) -> Host {
        Host {
            name: name.into(),
            kind: HostKind::Ground { lan, position },
            aperture_m,
        }
    }

    /// A HAP.
    pub fn hap(name: impl Into<String>, position: Geodetic, aperture_m: f64) -> Host {
        Host {
            name: name.into(),
            kind: HostKind::Hap { position },
            aperture_m,
        }
    }

    /// A satellite bound to its movement sheet.
    pub fn satellite(name: impl Into<String>, ephemeris: Ephemeris, aperture_m: f64) -> Host {
        Host {
            name: name.into(),
            kind: HostKind::Satellite { ephemeris },
            aperture_m,
        }
    }

    /// The LAN this host belongs to, if it is a ground station.
    pub fn lan(&self) -> Option<LanId> {
        match &self.kind {
            HostKind::Ground { lan, .. } => Some(*lan),
            _ => None,
        }
    }

    /// True for satellites.
    pub fn is_satellite(&self) -> bool {
        matches!(self.kind, HostKind::Satellite { .. })
    }

    /// True for HAPs.
    pub fn is_hap(&self) -> bool {
        matches!(self.kind, HostKind::Hap { .. })
    }

    /// True for ground stations.
    pub fn is_ground(&self) -> bool {
        matches!(self.kind, HostKind::Ground { .. })
    }

    /// Geodetic position at time step `step` (satellites move; others
    /// don't). A satellite's is computed from its movement sheet's ECEF
    /// sample.
    pub fn geodetic_at(&self, step: usize) -> Geodetic {
        match &self.kind {
            HostKind::Ground { position, .. } | HostKind::Hap { position } => *position,
            HostKind::Satellite { ephemeris } => ephemeris.at_step(step).geodetic(),
        }
    }

    /// ECEF position at time step `step`.
    pub fn ecef_at(&self, step: usize) -> Vec3 {
        match &self.kind {
            HostKind::Ground { position, .. } | HostKind::Hap { position } => {
                position.to_ecef(&WGS84)
            }
            HostKind::Satellite { ephemeris } => ephemeris.at_step(step).ecef,
        }
    }

    /// Altitude at time step `step`, metres. A satellite's is read from
    /// its sample's altitude cell, resolved on first read.
    pub fn altitude_at(&self, step: usize) -> f64 {
        match &self.kind {
            HostKind::Ground { position, .. } | HostKind::Hap { position } => position.alt_m,
            HostKind::Satellite { ephemeris } => ephemeris.at_step(step).altitude_m(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qntn_geo::Epoch;
    use qntn_orbit::{Keplerian, PerturbationModel, Propagator};

    fn sample_satellite() -> Host {
        let prop = Propagator::new(
            Keplerian::circular(6_871_000.0, 53f64.to_radians(), 0.0, 0.0),
            Epoch::J2000,
            PerturbationModel::TwoBody,
        );
        let eph = Ephemeris::generate(&prop, Epoch::J2000, 30.0, 3600.0);
        Host::satellite("SAT-000", eph, 1.2)
    }

    #[test]
    fn ground_host_is_static() {
        let g = Host::ground(
            "TTU-0",
            0,
            Geodetic::from_deg(36.1757, -85.5066, 300.0),
            1.2,
        );
        assert!(g.is_ground());
        assert_eq!(g.lan(), Some(0));
        assert_eq!(g.geodetic_at(0), g.geodetic_at(100));
        assert!((g.altitude_at(5) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn hap_host_is_static_and_lanless() {
        let h = Host::hap(
            "HAP-1",
            Geodetic::from_deg(35.6692, -85.0662, 30_000.0),
            0.3,
        );
        assert!(h.is_hap());
        assert_eq!(h.lan(), None);
        assert!((h.altitude_at(77) - 30_000.0).abs() < 1e-9);
        assert_eq!(h.aperture_m, 0.3);
    }

    #[test]
    fn satellite_moves_between_steps() {
        let s = sample_satellite();
        assert!(s.is_satellite());
        assert_eq!(s.lan(), None);
        let p0 = s.ecef_at(0);
        let p10 = s.ecef_at(10);
        // 300 s of LEO motion covers > 2000 km.
        assert!(p0.distance(p10) > 2_000_000.0);
        // Altitude stays near 500 km (geodetic wobble aside).
        assert!((s.altitude_at(0) - 500_000.0).abs() < 25_000.0);
    }

    #[test]
    fn ecef_and_geodetic_agree() {
        let s = sample_satellite();
        let g = s.geodetic_at(7);
        let e = s.ecef_at(7);
        assert!((g.to_ecef(&WGS84) - e).norm() < 1.0);
    }
}
