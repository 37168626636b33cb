//! Per-step link evaluation: geometry → transmissivity.
//!
//! Three link classes, mirroring the paper's Section III-A:
//!
//! - **fiber** between ground nodes of one LAN (static, Beer–Lambert over
//!   the geodesic distance);
//! - **FSO** between any ground node and any satellite or HAP (downlink
//!   convention — the airborne platform is the entanglement source);
//! - **FSO** between satellites (vacuum: diffraction and receiver
//!   efficiency only), evaluated only within a range cutoff since the
//!   diffraction budget is hopeless beyond ~2000 km with 1.2 m apertures.
//!
//! The Rytov variance integral is the expensive factor, and for a fixed
//! altitude pair it depends only on elevation, so [`RytovTable`]
//! precomputes it on a 0.25° elevation grid per (receiver, transmitter)
//! altitude class and interpolates. Tables are keyed by the altitude
//! classes of the actual host set ([`LinkEvaluator::for_hosts`]); a pair
//! whose altitudes match no table falls back to exact evaluation instead
//! of silently using a wrong-altitude table. The cache-vs-exact error is
//! far below anything the threshold test can resolve (tested).

use crate::host::Host;
use qntn_channel::fiber::FiberChannel;
use qntn_channel::fso::{FsoBatch, FsoChannel, FsoGeometry, SPACE_ALTITUDE_M};
use qntn_channel::params::{ElevationMode, FsoParams};
use qntn_common::QntnError;
use qntn_geo::look::look_angles_ecef;
use qntn_geo::{vincenty_m, Geodetic, WGS84};
use serde::{Deserialize, Serialize};

/// The paper's transmissivity threshold for link establishment.
pub const PAPER_THRESHOLD: f64 = 0.7;

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// FSO parameter set.
    pub fso: FsoParams,
    /// Transmissivity threshold gating link establishment (paper: 0.7).
    pub threshold: f64,
    /// Fiber attenuation, dB/km (paper: 0.15).
    pub fiber_attenuation_db_per_km: f64,
    /// Inter-satellite links farther than this are skipped outright.
    pub isl_max_range_m: f64,
    /// Evaluate inter-satellite links at all (they never pass threshold at
    /// the paper's constellation spacing, but cost time; default on for
    /// faithfulness, benches may disable).
    pub enable_isl: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            fso: FsoParams::ideal(),
            threshold: PAPER_THRESHOLD,
            fiber_attenuation_db_per_km: 0.15,
            isl_max_range_m: 2_000_000.0,
            enable_isl: true,
        }
    }
}

impl SimConfig {
    /// Check every parameter for physical sense, returning the first
    /// offending field as a structured [`QntnError::InvalidConfig`]. A
    /// silent NaN or non-positive threshold here would otherwise propagate
    /// into every coverage and fidelity statistic, so
    /// [`crate::QuantumNetworkSim::new`] refuses invalid configurations
    /// loudly.
    pub fn validate(&self) -> Result<(), QntnError> {
        let invalid = |field: &'static str, constraint: &'static str, got: f64| {
            Err(QntnError::InvalidConfig {
                field,
                constraint,
                got,
            })
        };
        let positive_finite = |name: &'static str, v: f64| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                invalid(name, "positive and finite", v)
            }
        };
        if !(self.threshold.is_finite() && self.threshold > 0.0 && self.threshold <= 1.0) {
            return invalid("threshold", "in (0, 1]", self.threshold);
        }
        positive_finite(
            "fiber_attenuation_db_per_km",
            self.fiber_attenuation_db_per_km,
        )?;
        positive_finite("isl_max_range_m", self.isl_max_range_m)?;
        positive_finite("fso.wavelength_m", self.fso.wavelength_m)?;
        positive_finite("fso.tx_waist_ratio", self.fso.tx_waist_ratio)?;
        if !(self.fso.receiver_efficiency.is_finite()
            && self.fso.receiver_efficiency > 0.0
            && self.fso.receiver_efficiency <= 1.0)
        {
            return invalid(
                "fso.receiver_efficiency",
                "in (0, 1]",
                self.fso.receiver_efficiency,
            );
        }
        if !(self.fso.pointing_jitter_rad.is_finite() && self.fso.pointing_jitter_rad >= 0.0) {
            return invalid(
                "fso.pointing_jitter_rad",
                "non-negative and finite",
                self.fso.pointing_jitter_rad,
            );
        }
        // An elevation past ±π/2 is no elevation, and one in (π, 2π) would
        // turn the extinction depth negative and η_atm above 1.
        if let ElevationMode::Fixed(e) = self.fso.elevation_mode {
            if !(e.is_finite() && e.abs() <= std::f64::consts::FRAC_PI_2) {
                return invalid(
                    "fso.elevation_mode fixed elevation",
                    "finite, in [-π/2, π/2]",
                    e,
                );
            }
        }
        let atm = &self.fso.atmosphere;
        if !(atm.sea_level_extinction_per_m.is_finite() && atm.sea_level_extinction_per_m >= 0.0) {
            return invalid(
                "fso.atmosphere.sea_level_extinction_per_m",
                "non-negative and finite",
                atm.sea_level_extinction_per_m,
            );
        }
        positive_finite("fso.atmosphere.scale_height_m", atm.scale_height_m)?;
        let turb = &self.fso.turbulence;
        for (name, v) in [
            ("fso.turbulence.cn2_ground", turb.cn2_ground),
            ("fso.turbulence.wind_rms_m_s", turb.wind_rms_m_s),
            ("fso.turbulence.scale", turb.scale),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return invalid(name, "non-negative and finite", v);
            }
        }
        Ok(())
    }
}

/// Precomputed Rytov variance vs elevation for one (rx_alt, tx_alt) class.
#[derive(Debug, Clone)]
pub struct RytovTable {
    rx_alt_m: f64,
    tx_alt_m: f64,
    min_elev: f64,
    step: f64,
    values: Vec<f64>,
}

impl RytovTable {
    /// Grid resolution: 0.25 degrees.
    const STEP_RAD: f64 = 0.25 * std::f64::consts::PI / 180.0;

    /// Build the table for a downlink from `tx_alt_m` to `rx_alt_m`.
    pub fn build(params: &FsoParams, rx_alt_m: f64, tx_alt_m: f64) -> RytovTable {
        let k = params.wavenumber();
        let min_elev = 1.0_f64.to_radians();
        let max_elev = std::f64::consts::FRAC_PI_2;
        let n = ((max_elev - min_elev) / Self::STEP_RAD).ceil() as usize + 2;
        let values = (0..n)
            .map(|i| {
                let elev = min_elev + i as f64 * Self::STEP_RAD;
                params
                    .turbulence
                    .rytov_variance_downlink(k, rx_alt_m, tx_alt_m, elev)
            })
            .collect();
        RytovTable {
            rx_alt_m,
            tx_alt_m,
            min_elev,
            step: Self::STEP_RAD,
            values,
        }
    }

    /// Receiver altitude class the table was built for, metres.
    #[inline]
    pub fn rx_alt_m(&self) -> f64 {
        self.rx_alt_m
    }

    /// Transmitter altitude class the table was built for, metres.
    #[inline]
    pub fn tx_alt_m(&self) -> f64 {
        self.tx_alt_m
    }

    /// Linear interpolation, clamped to the grid.
    pub fn lookup(&self, elev: f64) -> f64 {
        let x = ((elev - self.min_elev) / self.step).clamp(0.0, (self.values.len() - 1) as f64);
        let i = x.floor() as usize;
        if i + 1 >= self.values.len() {
            return self.values[self.values.len() - 1];
        }
        let frac = x - i as f64;
        self.values[i] * (1.0 - frac) + self.values[i + 1] * frac
    }
}

/// Minimum altitude (metres, spherical Earth) of the straight segment
/// between two ECEF points — the clearance test for elevated-platform
/// links.
fn ray_min_altitude_m(p1: qntn_geo::Vec3, p2: qntn_geo::Vec3) -> f64 {
    let d = p2 - p1;
    let denom = d.norm_sq();
    let t = if denom < 1e-9 {
        0.0
    } else {
        (-p1.dot(d) / denom).clamp(0.0, 1.0)
    };
    (p1 + d * t).norm() - 6_371_000.0
}

/// Evaluates link transmissivities for host pairs.
#[derive(Debug, Clone)]
pub struct LinkEvaluator {
    config: SimConfig,
    /// Rytov tables, one per (rx, tx) altitude class, sorted by class so
    /// two evaluators built from the same classes behave identically.
    rytov_tables: Vec<RytovTable>,
}

impl LinkEvaluator {
    /// Receiver altitudes are binned to 100 m for table keying; a lookup
    /// must sit within this distance of a table's class to use the cache.
    const RX_TOL_M: f64 = 60.0;
    /// Transmitter class granularity switches at this altitude: 5 km bins
    /// below (HAPs), 50 km bins above (satellites — wide enough to absorb
    /// the ellipsoidal altitude variation of a circular orbit, ~21 km,
    /// where the Rytov integral is flat because all turbulence lies below
    /// ~30 km).
    const TX_SPLIT_M: f64 = 100_000.0;
    /// Cap on precomputed tables; pairs beyond the cap fall back to exact
    /// evaluation (correct, just slower).
    const MAX_TABLES: usize = 12;
    /// Geocentric altitude bound above which [`LinkEvaluator::isl_eta`]
    /// takes a satellite as space-borne without resolving its altitude:
    /// [`SPACE_ALTITUDE_M`] plus a 100 km margin, far beyond any rounding
    /// and below every LEO shell the program builds.
    const ISL_BOUND_FLOOR_M: f64 = SPACE_ALTITUDE_M + 100_000.0;

    /// Build the evaluator with the two legacy altitude classes
    /// (300 m ground → 500 km satellites, 300 m ground → 30 km HAPs).
    /// Prefer [`LinkEvaluator::for_hosts`], which derives the classes from
    /// the actual host set; any pair outside these classes silently takes
    /// the exact (slower) path rather than a wrong-altitude table.
    pub fn new(config: SimConfig) -> LinkEvaluator {
        Self::from_classes(config, &[(300.0, 30_000.0), (300.0, 500_000.0)])
    }

    /// Build the evaluator with Rytov tables keyed by the altitude classes
    /// actually present in `hosts`: one receiver class per 100 m ground
    /// bin × one transmitter class per satellite/HAP altitude bin.
    pub fn for_hosts(config: SimConfig, hosts: &[Host]) -> LinkEvaluator {
        let mut rx: Vec<f64> = hosts
            .iter()
            .filter(|h| h.is_ground())
            .map(|h| Self::rx_class_m(h.altitude_at(0)))
            .collect();
        let mut tx: Vec<f64> = hosts
            .iter()
            .filter(|h| !h.is_ground())
            .map(|h| Self::tx_class_m(h.altitude_at(0)))
            .collect();
        for v in [&mut rx, &mut tx] {
            v.sort_by(f64::total_cmp);
            v.dedup();
        }
        let classes: Vec<(f64, f64)> = rx
            .iter()
            .flat_map(|&r| tx.iter().map(move |&t| (r, t)))
            .take(Self::MAX_TABLES)
            .collect();
        Self::from_classes(config, &classes)
    }

    /// Build with explicit (rx_alt, tx_alt) table classes.
    pub fn from_classes(config: SimConfig, classes: &[(f64, f64)]) -> LinkEvaluator {
        let mut classes: Vec<(f64, f64)> = classes.to_vec();
        classes.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        classes.dedup();
        let rytov_tables = classes
            .iter()
            .map(|&(rx_alt, tx_alt)| RytovTable::build(&config.fso, rx_alt, tx_alt))
            .collect();
        LinkEvaluator {
            config,
            rytov_tables,
        }
    }

    /// Canonical receiver (ground) altitude class: 100 m bins.
    fn rx_class_m(alt_m: f64) -> f64 {
        (alt_m / 100.0).round() * 100.0
    }

    /// Canonical transmitter (satellite/HAP) altitude class: 5 km bins in
    /// the stratosphere, 50 km bins for orbital altitudes.
    fn tx_class_m(alt_m: f64) -> f64 {
        if alt_m < Self::TX_SPLIT_M {
            (alt_m / 5_000.0).round() * 5_000.0
        } else {
            (alt_m / 50_000.0).round() * 50_000.0
        }
    }

    /// The (rx_alt, tx_alt) classes of the precomputed Rytov tables, as a
    /// borrowing iterator (no per-call allocation; `collect()` if a `Vec`
    /// is needed).
    pub fn rytov_classes(&self) -> impl ExactSizeIterator<Item = (f64, f64)> + '_ {
        self.rytov_tables
            .iter()
            .map(|t| (t.rx_alt_m(), t.tx_alt_m()))
    }

    /// The nearest precomputed table matching this (receiver, transmitter)
    /// altitude pair within the class tolerances, or `None` when the pair
    /// has no matching class and must be evaluated exactly.
    fn rytov_table_for(&self, rx_alt_m: f64, tx_alt_m: f64) -> Option<&RytovTable> {
        let tx_tol = |tx_class: f64| {
            if tx_class < Self::TX_SPLIT_M {
                2_500.0
            } else {
                50_000.0
            }
        };
        self.rytov_tables
            .iter()
            .filter(|t| {
                (rx_alt_m - t.rx_alt_m()).abs() <= Self::RX_TOL_M
                    && (tx_alt_m - t.tx_alt_m()).abs() <= tx_tol(t.tx_alt_m())
            })
            .min_by(|a, b| {
                let ta = (tx_alt_m - a.tx_alt_m()).abs();
                let tb = (tx_alt_m - b.tx_alt_m()).abs();
                ta.total_cmp(&tb).then(
                    (rx_alt_m - a.rx_alt_m())
                        .abs()
                        .total_cmp(&(rx_alt_m - b.rx_alt_m()).abs()),
                )
            })
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Fiber transmissivity between two static ground positions.
    pub fn fiber_eta(&self, a: Geodetic, b: Geodetic) -> f64 {
        let dist = vincenty_m(a, b, &WGS84).unwrap_or_else(|| qntn_geo::haversine_m(a, b, &WGS84));
        FiberChannel::new(dist, self.config.fiber_attenuation_db_per_km).transmissivity()
    }

    /// FSO transmissivity between two hosts at a time step, or `None` when
    /// the pair has no FSO link class (e.g. two ground nodes) or the
    /// geometry rules it out (below horizon, ISL beyond cutoff).
    pub fn fso_eta(&self, a: &Host, b: &Host, step: usize) -> Option<f64> {
        // Classify the pair.
        let both_ground = a.is_ground() && b.is_ground();
        if both_ground {
            return None;
        }
        let both_airborne_space = a.is_satellite() && b.is_satellite();
        if both_airborne_space {
            if !self.config.enable_isl {
                return None;
            }
            let pa = a.ecef_at(step);
            let pb = b.ecef_at(step);
            let range = pa.distance(pb);
            if range > self.config.isl_max_range_m || range <= 0.0 {
                return None;
            }
            return Some(self.isl_eta(a, b, step, range));
        }

        // Ground–satellite, ground–HAP, HAP–HAP or HAP–satellite: order by
        // altitude.
        let (low, high) = if a.altitude_at(step) <= b.altitude_at(step) {
            (a, b)
        } else {
            (b, a)
        };
        let low_pos = low.geodetic_at(step);
        let look = look_angles_ecef(low_pos, high.ecef_at(step), &WGS84);
        // Visibility: a ground endpoint needs positive elevation; between
        // two *elevated* platforms (e.g. a HAP fleet) the line of sight is
        // legitimately a fraction of a degree below the local horizontal,
        // so the test is instead that the ray clears the dense atmosphere.
        if low_pos.alt_m < 10_000.0 {
            if look.elevation <= 0.0 {
                return None; // below the horizon
            }
        } else if ray_min_altitude_m(low.ecef_at(step), high.ecef_at(step)) < 10_000.0 {
            return None; // grazing the troposphere / the planet
        }
        let geom = FsoGeometry::downlink(
            high.aperture_m,
            high.altitude_at(step),
            low.aperture_m,
            low_pos.alt_m,
            look.range_m,
            look.elevation,
        );
        let channel = FsoChannel::new(geom, self.config.fso);
        // Cached Rytov when a table matches this pair's altitude classes;
        // exact evaluation otherwise (a mismatched-altitude table would be
        // silently wrong, the bug this keying exists to prevent).
        let rytov = if matches!(self.config.fso.elevation_mode, ElevationMode::Geometric)
            && low.is_ground()
            && (high.is_satellite() || high.is_hap())
        {
            self.rytov_table_for(low_pos.alt_m, high.altitude_at(step))
                .map(|t| t.lookup(look.elevation))
        } else {
            None
        };
        Some(channel.budget_with_rytov(rytov).eta_total())
    }

    /// The vacuum η of the inter-satellite link between satellites `a` and
    /// `b` at `step`, `range` metres apart: the ISL branch of
    /// [`LinkEvaluator::fso_eta`] past its range test. The caller has
    /// measured `range` as `fso_eta` does and applied the same test; the
    /// pipeline's per-step ISL range gate calls this for the pairs that
    /// pass.
    ///
    /// The altitudes only pick the transmitter and decide
    /// [`FsoGeometry::is_space_only`]. Every point of the ellipsoid lies
    /// within a_eq of the Earth's centre, so a satellite at `r` has
    /// altitude h ≥ |r| − a_eq. With equal apertures and both bounds above
    /// [`LinkEvaluator::ISL_BOUND_FLOOR_M`], the path is space-only either
    /// way and transmitter and receiver are interchangeable, so the bounds
    /// give the exact η bit for bit without resolving an altitude; any
    /// other pair reads the exact altitudes.
    pub(crate) fn isl_eta(&self, a: &Host, b: &Host, step: usize, range: f64) -> f64 {
        let bound = |h: &Host| h.ecef_at(step).norm() - WGS84.semi_major_m;
        let (bound_a, bound_b) = (bound(a), bound(b));
        let (alt_a, alt_b) =
            if a.aperture_m == b.aperture_m && bound_a.min(bound_b) > Self::ISL_BOUND_FLOOR_M {
                (bound_a, bound_b)
            } else {
                (a.altitude_at(step), b.altitude_at(step))
            };
        let geom = FsoGeometry::downlink(
            a.aperture_m,
            alt_a,
            b.aperture_m,
            alt_b,
            range,
            std::f64::consts::FRAC_PI_2, // irrelevant in vacuum
        );
        FsoChannel::new(geom, self.config.fso).transmissivity()
    }

    /// Phase 1 of the batched η path: run [`LinkEvaluator::fso_eta`]'s
    /// classification and geometry for one pair, then either resolve it
    /// immediately or queue its SoA row. Resolved outcomes carry exactly
    /// the value `fso_eta` returns (the no-link cases, plus the paths the
    /// batch kernel does not model — ISLs and exo-atmospheric pairs —
    /// which are evaluated scalar right here); queued pairs get their η
    /// from [`FsoBatch::compute`], bit-identical to the scalar path by the
    /// kernel's contract. The split exists so [`crate::pipeline::LinkMap`]
    /// can gather a whole step's ground–satellite links and run the
    /// Rytov/diffraction/budget math as stage loops over arrays; its walk
    /// offers only ground–satellite pairs here, because ISLs take its
    /// per-step range gate instead.
    pub fn fso_eta_batch_enqueue(
        &self,
        a: &Host,
        b: &Host,
        step: usize,
        batch: &mut FsoBatch,
    ) -> BatchOutcome {
        if (a.is_ground() && b.is_ground()) || (a.is_satellite() && b.is_satellite()) {
            // No FSO class, or the ISL path — not an atmospheric downlink;
            // the scalar evaluator covers both.
            return BatchOutcome::Resolved(self.fso_eta(a, b, step));
        }
        // The same ordering, look angles and visibility gates as `fso_eta`.
        let (low, high) = if a.altitude_at(step) <= b.altitude_at(step) {
            (a, b)
        } else {
            (b, a)
        };
        let low_pos = low.geodetic_at(step);
        let look = look_angles_ecef(low_pos, high.ecef_at(step), &WGS84);
        if low_pos.alt_m < 10_000.0 {
            if look.elevation <= 0.0 {
                return BatchOutcome::Resolved(None);
            }
        } else if ray_min_altitude_m(low.ecef_at(step), high.ecef_at(step)) < 10_000.0 {
            return BatchOutcome::Resolved(None);
        }
        let geom = FsoGeometry::downlink(
            high.aperture_m,
            high.altitude_at(step),
            low.aperture_m,
            low_pos.alt_m,
            look.range_m,
            look.elevation,
        );
        if geom.is_space_only() {
            // Exo-atmospheric (never reachable while the low endpoint is a
            // ground site, but kept total): the kernel's turbulence and
            // extinction stages don't apply, so take the scalar budget.
            let channel = FsoChannel::new(geom, self.config.fso);
            return BatchOutcome::Resolved(Some(channel.budget_with_rytov(None).eta_total()));
        }
        // Resolve the effective elevation and the Rytov variance *now*, the
        // way the scalar path would: a matching table interpolates on the
        // geometric elevation, everything else computes the exact integral
        // the budget would otherwise compute internally — same expression,
        // same arguments, same bits.
        let elev = match self.config.fso.elevation_mode {
            ElevationMode::Geometric => geom.elevation_rad,
            ElevationMode::Fixed(e) => e,
        };
        let rytov = if matches!(self.config.fso.elevation_mode, ElevationMode::Geometric)
            && low.is_ground()
            && (high.is_satellite() || high.is_hap())
        {
            match self.rytov_table_for(low_pos.alt_m, high.altitude_at(step)) {
                Some(t) => t.lookup(look.elevation),
                None => self.config.fso.turbulence.rytov_variance_downlink(
                    self.config.fso.wavenumber(),
                    geom.rx_alt_m,
                    geom.tx_alt_m,
                    elev,
                ),
            }
        } else {
            self.config.fso.turbulence.rytov_variance_downlink(
                self.config.fso.wavenumber(),
                geom.rx_alt_m,
                geom.tx_alt_m,
                elev,
            )
        };
        batch.push(&geom, elev, rytov);
        BatchOutcome::Queued
    }
}

/// Disposition of one pair offered to
/// [`LinkEvaluator::fso_eta_batch_enqueue`].
#[derive(Debug, Clone, Copy)]
pub enum BatchOutcome {
    /// The pair resolved without the kernel — either no link, or a path
    /// the batch kernel does not model, evaluated scalar. The value is
    /// exactly what [`LinkEvaluator::fso_eta`] returns.
    Resolved(Option<f64>),
    /// Geometry and Rytov variance appended to the batch; the η arrives
    /// from [`FsoBatch::compute`] in push order.
    Queued,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Host;
    use qntn_geo::Epoch;
    use qntn_orbit::{Ephemeris, Keplerian, PerturbationModel, Propagator};

    fn ground(lat: f64, lon: f64) -> Host {
        Host::ground("G", 0, Geodetic::from_deg(lat, lon, 300.0), 1.2)
    }

    fn hap() -> Host {
        Host::hap("HAP", Geodetic::from_deg(35.6692, -85.0662, 30_000.0), 0.3)
    }

    fn satellite(raan_deg: f64, ta_deg: f64) -> Host {
        let prop = Propagator::new(
            Keplerian::circular(
                6_871_000.0,
                53f64.to_radians(),
                raan_deg.to_radians(),
                ta_deg.to_radians(),
            ),
            Epoch::J2000,
            PerturbationModel::TwoBody,
        );
        Host::satellite(
            "S",
            Ephemeris::generate(&prop, Epoch::J2000, 30.0, 86_400.0),
            1.2,
        )
    }

    fn eval() -> LinkEvaluator {
        LinkEvaluator::new(SimConfig::default())
    }

    #[test]
    fn fiber_between_campus_nodes_is_strong() {
        let e = eval();
        let eta = e.fiber_eta(
            Geodetic::from_deg(36.1757, -85.5066, 300.0),
            Geodetic::from_deg(36.1751, -85.5067, 300.0),
        );
        assert!(eta > 0.99, "{eta}");
    }

    #[test]
    fn fiber_between_cities_fails_threshold() {
        let e = eval();
        let eta = e.fiber_eta(
            Geodetic::from_deg(36.1757, -85.5066, 300.0),
            Geodetic::from_deg(35.91, -84.3, 250.0),
        );
        assert!(eta < PAPER_THRESHOLD, "{eta}");
    }

    #[test]
    fn ground_to_ground_has_no_fso() {
        let e = eval();
        assert!(e
            .fso_eta(&ground(36.0, -85.0), &ground(35.5, -85.2), 0)
            .is_none());
    }

    #[test]
    fn hap_ground_link_is_high_quality() {
        let e = eval();
        let eta = e
            .fso_eta(&hap(), &ground(36.1757, -85.5066), 0)
            .expect("HAP should see Cookeville");
        assert!(eta > 0.9, "{eta}");
        assert!(eta >= PAPER_THRESHOLD);
        // Symmetric in argument order.
        let eta2 = e.fso_eta(&ground(36.1757, -85.5066), &hap(), 0).unwrap();
        assert!((eta - eta2).abs() < 1e-12);
    }

    #[test]
    fn below_horizon_satellite_gives_none() {
        // A satellite with RAAN/anomaly putting it on the far side of Earth
        // at t=0 must be invisible from Tennessee.
        let e = eval();
        let g = ground(36.0, -85.0);
        let mut seen_none = false;
        for ta in [0.0, 90.0, 180.0, 270.0] {
            let s = satellite(0.0, ta);
            if e.fso_eta(&g, &s, 0).is_none() {
                seen_none = true;
            }
        }
        assert!(seen_none, "some geometry must be below the horizon");
    }

    #[test]
    fn satellite_link_exists_somewhere_during_a_day() {
        let e = eval();
        let g = ground(36.0, -85.0);
        let s = satellite(260.0, 60.0);
        let best = (0..2880)
            .filter_map(|t| e.fso_eta(&g, &s, t))
            .fold(0.0_f64, f64::max);
        assert!(best > 0.0, "satellite never rose above the horizon");
    }

    #[test]
    fn cached_rytov_matches_exact_within_tolerance() {
        // Compare the cached path with an exact-Rytov evaluation.
        let cfg = SimConfig::default();
        let e = LinkEvaluator::new(cfg);
        let g = ground(36.0, -85.0);
        let s = satellite(0.0, 0.0);
        for step in (0..2880).step_by(97) {
            let Some(eta_cached) = e.fso_eta(&g, &s, step) else {
                continue;
            };
            // Exact: rebuild the channel without the cache.
            let look = look_angles_ecef(g.geodetic_at(step), s.ecef_at(step), &WGS84);
            let geom = FsoGeometry::downlink(
                1.2,
                s.altitude_at(step),
                1.2,
                300.0,
                look.range_m,
                look.elevation,
            );
            let exact = FsoChannel::new(geom, cfg.fso).transmissivity();
            assert!(
                (eta_cached - exact).abs() < 1e-4,
                "step {step}: cached {eta_cached} vs exact {exact}"
            );
        }
    }

    fn satellite_at(sma_m: f64, raan_deg: f64, ta_deg: f64) -> Host {
        let prop = Propagator::new(
            Keplerian::circular(
                sma_m,
                53f64.to_radians(),
                raan_deg.to_radians(),
                ta_deg.to_radians(),
            ),
            Epoch::J2000,
            PerturbationModel::TwoBody,
        );
        Host::satellite(
            "S",
            Ephemeris::generate(&prop, Epoch::J2000, 30.0, 86_400.0),
            1.2,
        )
    }

    #[test]
    fn rytov_cache_keys_by_altitude_class() {
        // Regression for the hardcoded 500 km / 300 m tables: an 800 km
        // constellation over a 600 m ground site must get tables built for
        // *its* altitudes, and the cached path must still track the exact
        // evaluation.
        let cfg = SimConfig::default();
        let g = Host::ground("G", 0, Geodetic::from_deg(36.0, -85.0, 600.0), 1.2);
        let s = satellite_at(7_171_000.0, 0.0, 0.0); // ~800 km altitude
        let e = LinkEvaluator::for_hosts(cfg, &[g.clone(), s.clone()]);
        let classes: Vec<(f64, f64)> = e.rytov_classes().collect();
        assert_eq!(classes.len(), 1, "{classes:?}");
        assert!((classes[0].0 - 600.0).abs() < 1e-9, "{classes:?}");
        assert!((classes[0].1 - 800_000.0).abs() < 50_000.0, "{classes:?}");
        let mut checked = 0;
        for step in (0..2880).step_by(97) {
            let Some(eta_cached) = e.fso_eta(&g, &s, step) else {
                continue;
            };
            let look = look_angles_ecef(g.geodetic_at(step), s.ecef_at(step), &WGS84);
            let geom = FsoGeometry::downlink(
                1.2,
                s.altitude_at(step),
                1.2,
                600.0,
                look.range_m,
                look.elevation,
            );
            let exact = FsoChannel::new(geom, cfg.fso).transmissivity();
            assert!(
                (eta_cached - exact).abs() < 1e-4,
                "step {step}: cached {eta_cached} vs exact {exact}"
            );
            checked += 1;
        }
        assert!(checked > 0, "satellite never visible; test is vacuous");
    }

    #[test]
    fn unmatched_altitude_class_falls_back_to_exact() {
        // The legacy evaluator only carries 300 m-ground classes; a mountain
        // site at 1500 m matches no table, so the evaluator must take the
        // exact path (bit-identical to a by-hand exact budget) instead of
        // reusing the 300 m table as the old code did.
        let cfg = SimConfig::default();
        let e = LinkEvaluator::new(cfg);
        let g = Host::ground("G", 0, Geodetic::from_deg(36.0, -85.0, 1_500.0), 1.2);
        assert!(e.rytov_table_for(1_500.0, 500_000.0).is_none());
        let s = satellite_at(6_871_000.0, 0.0, 0.0);
        let mut checked = 0;
        for step in (0..2880).step_by(53) {
            let Some(eta) = e.fso_eta(&g, &s, step) else {
                continue;
            };
            let look = look_angles_ecef(g.geodetic_at(step), s.ecef_at(step), &WGS84);
            let geom = FsoGeometry::downlink(
                1.2,
                s.altitude_at(step),
                1.2,
                1_500.0,
                look.range_m,
                look.elevation,
            );
            let exact = FsoChannel::new(geom, cfg.fso).transmissivity();
            assert!((eta - exact).abs() < 1e-15, "step {step}: {eta} vs {exact}");
            checked += 1;
        }
        assert!(checked > 0, "satellite never visible; test is vacuous");
    }

    #[test]
    fn for_hosts_derives_classes_from_host_set() {
        let cfg = SimConfig::default();
        let hosts = vec![
            Host::ground("G1", 0, Geodetic::from_deg(36.0, -85.0, 300.0), 1.2),
            Host::ground("G2", 1, Geodetic::from_deg(35.9, -84.3, 250.0), 1.2),
            Host::ground("G3", 2, Geodetic::from_deg(35.0, -85.3, 200.0), 1.2),
            hap(),
            satellite_at(6_871_000.0, 0.0, 0.0),
        ];
        let e = LinkEvaluator::for_hosts(cfg, &hosts);
        let classes: Vec<(f64, f64)> = e.rytov_classes().collect();
        // rx bins {200, 300} (250 rounds up) × tx bins {30 km, 500 km}.
        assert_eq!(classes.len(), 4, "{classes:?}");
        for rx in [200.0, 300.0] {
            for tx in [30_000.0, 500_000.0] {
                assert!(
                    classes
                        .iter()
                        .any(|&(r, t)| r == rx && (t - tx).abs() <= 50_000.0),
                    "missing class ({rx}, {tx}): {classes:?}"
                );
            }
        }
    }

    #[test]
    fn batched_path_matches_fso_eta_bit_for_bit() {
        // Every pair class the pipeline can offer the batch path — cached
        // Rytov, exact-fallback Rytov (mountain site), HAP downlink,
        // HAP–satellite, ISL, and fixed-elevation mode — must reproduce
        // the scalar evaluator bit for bit, resolved or queued.
        let mountain = Host::ground("M", 0, Geodetic::from_deg(36.0, -85.0, 1_500.0), 1.2);
        let pairs = [
            (ground(36.0, -85.0), satellite(260.0, 60.0)),
            (mountain, satellite(120.0, 180.0)),
            (ground(35.0, -85.3), hap()),
            (hap(), satellite(0.0, 0.0)),
            (satellite(0.0, 0.0), satellite(0.0, 60.0)),
        ];
        for cfg in [
            SimConfig::default(),
            SimConfig {
                fso: qntn_channel::params::FsoParams::ideal_fixed_elevation(),
                ..SimConfig::default()
            },
        ] {
            let e = LinkEvaluator::new(cfg);
            for step in (0..2880).step_by(37) {
                let mut batch = FsoBatch::default();
                let plan: Vec<BatchOutcome> = pairs
                    .iter()
                    .map(|(a, b)| e.fso_eta_batch_enqueue(a, b, step, &mut batch))
                    .collect();
                batch.compute(&e.config().fso);
                let mut slot = 0;
                for ((a, b), outcome) in pairs.iter().zip(&plan) {
                    let scalar = e.fso_eta(a, b, step).map(f64::to_bits);
                    let batched = match outcome {
                        BatchOutcome::Resolved(v) => v.map(f64::to_bits),
                        BatchOutcome::Queued => {
                            let eta = batch.eta()[slot];
                            slot += 1;
                            Some(eta.to_bits())
                        }
                    };
                    assert_eq!(batched, scalar, "step {step}: {} – {}", a.name, b.name);
                }
                assert_eq!(slot, batch.len(), "step {step}: unconsumed batch rows");
            }
        }
    }

    #[test]
    fn validate_accepts_default_and_rejects_nonsense() {
        assert!(SimConfig::default().validate().is_ok());
        let bad = |f: &dyn Fn(&mut SimConfig)| {
            let mut c = SimConfig::default();
            f(&mut c);
            c.validate()
        };
        assert!(bad(&|c| c.threshold = 0.0).is_err());
        assert!(bad(&|c| c.threshold = 1.5).is_err());
        assert!(bad(&|c| c.threshold = f64::NAN).is_err());
        assert!(bad(&|c| c.fiber_attenuation_db_per_km = -0.1).is_err());
        assert!(bad(&|c| c.fiber_attenuation_db_per_km = f64::INFINITY).is_err());
        assert!(bad(&|c| c.isl_max_range_m = 0.0).is_err());
        assert!(bad(&|c| c.fso.wavelength_m = f64::NAN).is_err());
        assert!(bad(&|c| c.fso.receiver_efficiency = 0.0).is_err());
        assert!(bad(&|c| c.fso.receiver_efficiency = 1.2).is_err());
        assert!(bad(&|c| c.fso.pointing_jitter_rad = -1e-6).is_err());
        assert!(bad(&|c| c.fso.turbulence.scale = f64::NAN).is_err());
        assert!(bad(&|c| c.fso.atmosphere.scale_height_m = 0.0).is_err());
        assert!(bad(&|c| c.fso.elevation_mode = ElevationMode::Fixed(f64::NAN)).is_err());
        assert!(bad(&|c| c.fso.elevation_mode = ElevationMode::Fixed(3.3)).is_err());
        assert!(bad(&|c| c.fso.elevation_mode = ElevationMode::Fixed(-1.6)).is_err());
        assert!(bad(&|c| c.fso.elevation_mode = ElevationMode::Fixed(-0.1)).is_ok());
    }

    #[test]
    fn isl_respects_range_cutoff() {
        let cfg = SimConfig {
            isl_max_range_m: 1_000.0, // absurdly small: nothing qualifies
            ..SimConfig::default()
        };
        let e = LinkEvaluator::new(cfg);
        let s1 = satellite(0.0, 0.0);
        let s2 = satellite(0.0, 60.0);
        assert!(e.fso_eta(&s1, &s2, 0).is_none());
    }

    #[test]
    fn isl_disabled_gives_none() {
        let cfg = SimConfig {
            enable_isl: false,
            ..SimConfig::default()
        };
        let e = LinkEvaluator::new(cfg);
        let s1 = satellite(0.0, 0.0);
        let s2 = satellite(0.0, 60.0);
        assert!(e.fso_eta(&s1, &s2, 0).is_none());
    }

    #[test]
    fn in_plane_neighbours_are_below_threshold() {
        // Adjacent satellites in one plane: 60° apart at a = 6871 km is a
        // 6871 km chord — way beyond any FSO budget here.
        let cfg = SimConfig {
            isl_max_range_m: 1e7,
            ..SimConfig::default()
        };
        let e = LinkEvaluator::new(cfg);
        let s1 = satellite(0.0, 0.0);
        let s2 = satellite(0.0, 60.0);
        if let Some(eta) = e.fso_eta(&s1, &s2, 0) {
            assert!(eta < PAPER_THRESHOLD, "{eta}");
        }
    }

    #[test]
    fn ray_min_altitude_cases() {
        use qntn_geo::Vec3;
        let r = 6_371_000.0;
        // Two points at 30 km altitude, ~90 km apart: midpoint dips but
        // stays high.
        let a = Vec3::new(r + 30_000.0, 0.0, 0.0);
        let b = Vec3::new(r + 30_000.0, 90_000.0, 0.0).normalized().unwrap() * (r + 30_000.0);
        let min_alt = ray_min_altitude_m(a, b);
        assert!((29_000.0..30_001.0).contains(&min_alt), "{min_alt}");
        // Antipodal-ish chord passes through the planet.
        let c = Vec3::new(-(r + 30_000.0), 0.0, 0.0);
        assert!(ray_min_altitude_m(a, c) < 0.0);
        // Degenerate zero-length segment.
        assert!((ray_min_altitude_m(a, a) - 30_000.0).abs() < 1.0);
    }

    #[test]
    fn hap_to_hap_stratospheric_link_evaluates() {
        // A short stratospheric hop (~40 km) with 30 cm apertures clears
        // the threshold; a city-spacing hop (~110 km) does not — the
        // diffraction budget of a 30 cm receiver runs out (the fleet
        // experiment's design finding).
        let e = eval();
        let h1 = Host::hap("H1", Geodetic::from_deg(36.00, -85.00, 30_000.0), 0.3);
        let near = Host::hap("H2", Geodetic::from_deg(36.00, -84.56, 30_000.0), 0.3);
        let eta = e
            .fso_eta(&h1, &near, 0)
            .expect("stratospheric path is clear");
        assert!(eta >= PAPER_THRESHOLD, "40 km hop: {eta}");
        let far = Host::hap("H3", Geodetic::from_deg(35.90, -83.80, 30_000.0), 0.3);
        let eta_far = e.fso_eta(&h1, &far, 0).expect("path is clear, just lossy");
        assert!(eta_far < PAPER_THRESHOLD, "110 km hop: {eta_far}");
    }

    #[test]
    fn hap_link_through_the_planet_is_rejected() {
        let e = eval();
        let h1 = Host::hap("H1", Geodetic::from_deg(36.0, -85.0, 30_000.0), 0.3);
        let h2 = Host::hap("H2", Geodetic::from_deg(-36.0, 95.0, 30_000.0), 0.3);
        assert!(e.fso_eta(&h1, &h2, 0).is_none());
    }

    #[test]
    fn rytov_table_interpolation_is_smooth() {
        let t = RytovTable::build(&FsoParams::ideal(), 300.0, 500_000.0);
        let a = t.lookup(0.5);
        let b = t.lookup(0.5001);
        assert!((a - b).abs() / a.max(1e-30) < 1e-2);
        // Clamps outside the grid.
        let lo = t.lookup(0.0);
        let hi = t.lookup(2.0);
        assert!(lo.is_finite() && hi.is_finite());
    }
}
