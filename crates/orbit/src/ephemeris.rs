//! Ephemerides ("movement sheets").
//!
//! The paper records each satellite's position at 30-second intervals over
//! one day with STK, exports the result as a movement sheet, and replays it
//! inside the network simulator. [`Ephemeris`] is that artifact: a dense
//! table of ECEF positions at a fixed cadence; sample `k` is the state at
//! `k as f64 * step_s` seconds after the start. Each sample's geodetic
//! altitude is resolved from its position the first time something reads
//! it ([`EphemerisSample::altitude_m`]) and kept in the sample, so the
//! WGS-84 inverse runs only for the samples a link ever looks at.
//!
//! Generation tabulates the Earth's rotation once per call — row `k` has
//! the same epoch for every satellite — and then propagates positions
//! only: [`Propagator`]'s one position formula, rotated by the row's
//! −GMST. It is embarrassingly parallel across satellites
//! ([`Ephemeris::generate_many`] uses rayon) and deterministic.

use crate::propagator::{rotate_z, Propagator};
use qntn_geo::{Epoch, Geodetic, Vec3};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// The altitude cell's "unresolved" value: a signalling-NaN bit pattern,
/// which no float operation produces. Were an altitude ever to compute to
/// exactly these bits, the cell would resolve again on each read, which is
/// still correct.
const UNRESOLVED: u64 = 0x7ff0_0000_0000_0001;

/// One row of a movement sheet. Its time is implied by its row: sample `k`
/// of an [`Ephemeris`] is the state at `k as f64 * step_s` seconds.
///
/// The sample stores the Earth-fixed position and a cell for the geodetic
/// altitude, which is a function of that position: the first
/// [`EphemerisSample::altitude_m`] (or [`EphemerisSample::geodetic`]) read
/// computes it and stores its bits, later reads load them. Racing readers
/// compute and store the same bits, so `Relaxed` ordering suffices. Clones
/// copy the cell; equality compares positions only.
#[derive(Debug, Serialize, Deserialize)]
pub struct EphemerisSample {
    /// Earth-fixed position, metres. A sheet hands out samples by shared
    /// reference only; rewriting this on an owned clone would leave a
    /// resolved altitude stale.
    pub ecef: Vec3,
    /// The altitude's f64 bits once resolved, else [`UNRESOLVED`].
    altitude_bits: AtomicU64,
}

impl EphemerisSample {
    fn new(ecef: Vec3) -> EphemerisSample {
        EphemerisSample {
            ecef,
            altitude_bits: AtomicU64::new(UNRESOLVED),
        }
    }

    /// Geodetic (WGS-84) altitude, metres: resolved from the position on
    /// the first read, loaded from the sample afterwards.
    #[inline]
    pub fn altitude_m(&self) -> f64 {
        match self.altitude_bits.load(Ordering::Relaxed) {
            UNRESOLVED => self.geodetic().alt_m,
            bits => f64::from_bits(bits),
        }
    }

    /// Geodetic (WGS-84) position, computed from the Earth-fixed one. Also
    /// resolves the altitude cell.
    pub fn geodetic(&self) -> Geodetic {
        let g = Geodetic::from_ecef_wgs84(self.ecef);
        self.altitude_bits
            .store(g.alt_m.to_bits(), Ordering::Relaxed);
        g
    }
}

impl Clone for EphemerisSample {
    fn clone(&self) -> Self {
        EphemerisSample {
            ecef: self.ecef,
            altitude_bits: AtomicU64::new(self.altitude_bits.load(Ordering::Relaxed)),
        }
    }
}

impl PartialEq for EphemerisSample {
    /// Positions only: the altitude is a function of the position.
    fn eq(&self, other: &Self) -> bool {
        self.ecef == other.ecef
    }
}

/// A sampled trajectory at fixed cadence.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ephemeris {
    start: Epoch,
    step_s: f64,
    samples: Vec<EphemerisSample>,
}

impl Ephemeris {
    /// Sample `propagator` every `step_s` seconds for `duration_s` seconds
    /// starting at `start` (inclusive of t = 0, exclusive of the endpoint,
    /// so a 24 h / 30 s sheet has 2880 rows).
    pub fn generate(propagator: &Propagator, start: Epoch, step_s: f64, duration_s: f64) -> Self {
        let rows = Self::rotation_table(start, step_s, duration_s);
        Self::sheet(propagator, start, step_s, &rows)
    }

    /// Generate sheets for a whole constellation in parallel. Output order
    /// matches input order; results are identical to calling
    /// [`Ephemeris::generate`] per satellite sequentially.
    pub fn generate_many(
        propagators: &[Propagator],
        start: Epoch,
        step_s: f64,
        duration_s: f64,
    ) -> Vec<Ephemeris> {
        let rows = Self::rotation_table(start, step_s, duration_s);
        propagators
            .par_iter()
            .map(|p| Self::sheet(p, start, step_s, &rows))
            .collect()
    }

    /// The Earth's rotation, one row per step: the row's epoch and the
    /// `sin_cos` of −GMST there, which ECI → ECEF rotates by. Every
    /// satellite's row `k` has the same epoch, so one table serves a whole
    /// constellation with the float calls a per-sample rotation would make.
    fn rotation_table(start: Epoch, step_s: f64, duration_s: f64) -> Vec<(Epoch, (f64, f64))> {
        assert!(step_s > 0.0, "cadence must be positive");
        assert!(duration_s > 0.0, "duration must be positive");
        let n = (duration_s / step_s).round() as usize;
        (0..n)
            .map(|k| {
                let at = start.plus_seconds(k as f64 * step_s);
                (at, (-at.gmst()).sin_cos())
            })
            .collect()
    }

    /// One satellite's sheet over the rows of a rotation table: positions
    /// only (no velocity, no geodetic inverse), with the satellite's
    /// orientation `sin_cos` memoized across rows.
    fn sheet(
        propagator: &Propagator,
        start: Epoch,
        step_s: f64,
        rows: &[(Epoch, (f64, f64))],
    ) -> Self {
        let mut orientation = propagator.orientation();
        let samples = rows
            .iter()
            .map(|(at, earth)| {
                let dt_s = at.seconds_since(&propagator.epoch());
                let (eci, _) = propagator.position(dt_s, &mut orientation);
                EphemerisSample::new(rotate_z(eci, *earth))
            })
            .collect();
        Ephemeris {
            start,
            step_s,
            samples,
        }
    }

    /// The start epoch.
    #[inline]
    pub fn start(&self) -> Epoch {
        self.start
    }

    /// Sample cadence in seconds.
    #[inline]
    pub fn step_s(&self) -> f64 {
        self.step_s
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the sheet is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All samples.
    #[inline]
    pub fn samples(&self) -> &[EphemerisSample] {
        &self.samples
    }

    /// The sample at step `k`.
    #[inline]
    pub fn at_step(&self, k: usize) -> &EphemerisSample {
        &self.samples[k]
    }

    /// How many samples have their altitude resolved: those read by
    /// [`EphemerisSample::altitude_m`] or [`EphemerisSample::geodetic`],
    /// here or in the sheet this one was cloned from.
    pub fn resolved_altitudes(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.altitude_bits.load(Ordering::Relaxed) != UNRESOLVED)
            .count()
    }

    /// ECEF position at an arbitrary time via linear interpolation between
    /// the bracketing samples (clamped to the sheet's span). At a 30 s
    /// cadence the chord-vs-arc error for a 500 km LEO is about 1 km —
    /// negligible against slant ranges of 500–1200 km.
    pub fn ecef_at(&self, t_s: f64) -> Vec3 {
        let last = (self.samples.len() - 1) as f64;
        let x = (t_s / self.step_s).clamp(0.0, last);
        let k = x.floor() as usize;
        if k as f64 >= last {
            return self.samples[self.samples.len() - 1].ecef;
        }
        let frac = x - k as f64;
        self.samples[k].ecef.lerp(self.samples[k + 1].ecef, frac)
    }

    /// Geodetic ground track (latitude/longitude at zero altitude).
    pub fn ground_track(&self) -> Vec<Geodetic> {
        self.samples
            .iter()
            .map(|s| s.geodetic().with_alt(0.0))
            .collect()
    }

    /// Render the sheet in the CSV layout the paper's STK export used:
    /// `t_s,lat_deg,lon_deg,alt_m,ecef_x,ecef_y,ecef_z` with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.samples.len() * 96 + 64);
        out.push_str("t_s,lat_deg,lon_deg,alt_m,ecef_x_m,ecef_y_m,ecef_z_m\n");
        for (k, s) in self.samples.iter().enumerate() {
            let g = s.geodetic();
            out.push_str(&format!(
                "{:.1},{:.6},{:.6},{:.1},{:.1},{:.1},{:.1}\n",
                k as f64 * self.step_s,
                g.lat_deg(),
                g.lon_deg(),
                g.alt_m,
                s.ecef.x,
                s.ecef.y,
                s.ecef.z,
            ));
        }
        out
    }
}

/// Paper cadence: 30 seconds.
pub const PAPER_STEP_S: f64 = 30.0;

/// Paper window: one day.
pub const PAPER_DURATION_S: f64 = 86_400.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::Keplerian;
    use crate::propagator::PerturbationModel;
    use qntn_geo::eci_to_ecef;

    fn leo_prop() -> Propagator {
        Propagator::new(
            Keplerian::circular(6_871_000.0, 53.0_f64.to_radians(), 0.3, 1.2),
            Epoch::J2000,
            PerturbationModel::TwoBody,
        )
    }

    /// The per-sample formula: the propagator oracle at `at`, rotated into
    /// ECEF by `eci_to_ecef`, and the WGS-84 inverse of that.
    fn per_sample(p: &Propagator, at: Epoch) -> (Vec3, Geodetic) {
        let ecef = eci_to_ecef(
            p.propagate_oracle(at.seconds_since(&p.epoch())).position,
            at,
        );
        (ecef, Geodetic::from_ecef_wgs84(ecef))
    }

    fn bits(v: [f64; 3]) -> [u64; 3] {
        v.map(f64::to_bits)
    }

    #[test]
    fn paper_sheet_has_2880_rows() {
        let prop = leo_prop();
        let eph = Ephemeris::generate(&prop, Epoch::J2000, PAPER_STEP_S, PAPER_DURATION_S);
        assert_eq!(eph.len(), 2880);
        // Row k is the state at k × step_s: the first row at the start, the
        // last one step short of a day.
        for (k, t_s) in [(0, 0.0), (2879, 2879.0 * 30.0)] {
            assert_eq!(k as f64 * eph.step_s(), t_s);
            let (want, _) = per_sample(&prop, Epoch::J2000.plus_seconds(t_s));
            assert_eq!(eph.at_step(k).ecef, want, "row {k}");
        }
    }

    /// The table-driven sampler against the per-sample formula, every bit
    /// of every sample over a day at 30 s: ECEF, the geodetic position and
    /// the altitude cell, from `generate_many` and `generate` alike, for
    /// circular and eccentric Walker slots under both force models and at
    /// two epochs (J2000 and the program's default, 2024-07-01 00:00 UT).
    #[test]
    fn sheets_match_the_per_sample_formula() {
        let slots: Vec<Keplerian> = crate::walker::paper_constellation(108)
            .into_iter()
            .step_by(37)
            .collect();
        for epoch in [Epoch::J2000, Epoch::from_calendar(2024, 7, 1, 0, 0, 0.0)] {
            for model in [PerturbationModel::TwoBody, PerturbationModel::J2Secular] {
                for eccentric in [false, true] {
                    let props: Vec<Propagator> = slots
                        .iter()
                        .map(|&k| {
                            let k = if eccentric {
                                Keplerian {
                                    semi_major_m: 9_000_000.0,
                                    eccentricity: 0.2,
                                    arg_perigee: 0.7,
                                    ..k
                                }
                            } else {
                                k
                            };
                            Propagator::new(k, epoch, model)
                        })
                        .collect();
                    let many =
                        Ephemeris::generate_many(&props, epoch, PAPER_STEP_S, PAPER_DURATION_S);
                    for (p, sheet) in props.iter().zip(&many) {
                        let one = Ephemeris::generate(p, epoch, PAPER_STEP_S, PAPER_DURATION_S);
                        assert_eq!(sheet.len(), 2880);
                        assert_eq!(one.len(), 2880);
                        for k in 0..sheet.len() {
                            let at = epoch.plus_seconds(k as f64 * PAPER_STEP_S);
                            let (ecef, g) = per_sample(p, at);
                            let want = bits([ecef.x, ecef.y, ecef.z]);
                            let want_g = bits([g.lat, g.lon, g.alt_m]);
                            for s in [sheet.at_step(k), one.at_step(k)] {
                                let ctx = || format!("{model:?} eccentric={eccentric} row {k}");
                                assert_eq!(bits([s.ecef.x, s.ecef.y, s.ecef.z]), want, "{}", ctx());
                                // The first read resolves the cell.
                                assert_eq!(
                                    s.altitude_m().to_bits(),
                                    g.alt_m.to_bits(),
                                    "{}",
                                    ctx()
                                );
                                let got = s.geodetic();
                                assert_eq!(
                                    bits([got.lat, got.lon, got.alt_m]),
                                    want_g,
                                    "{}",
                                    ctx()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn altitude_resolves_on_first_read_and_clones_carry_it() {
        let eph = Ephemeris::generate(&leo_prop(), Epoch::J2000, 60.0, 3600.0);
        assert_eq!(eph.resolved_altitudes(), 0);
        let alt = eph.at_step(3).altitude_m();
        assert_eq!(eph.resolved_altitudes(), 1);
        assert_eq!(eph.at_step(3).altitude_m().to_bits(), alt.to_bits());
        eph.at_step(7).geodetic();
        let copy = eph.clone();
        assert_eq!(copy.resolved_altitudes(), 2);
        assert_eq!(copy.at_step(3).altitude_m().to_bits(), alt.to_bits());
        assert_eq!(eph.resolved_altitudes(), 2);
    }

    #[test]
    fn altitude_stays_near_500_km() {
        let eph = Ephemeris::generate(&leo_prop(), Epoch::J2000, 300.0, 86_400.0);
        for (k, s) in eph.samples().iter().enumerate() {
            // WGS-84 altitude of a constant-radius orbit varies with latitude
            // by up to ~21 km (equatorial bulge) around the nominal 493-514.
            assert!(
                (470_000.0..540_000.0).contains(&s.altitude_m()),
                "alt {} at t={}",
                s.altitude_m(),
                k as f64 * eph.step_s()
            );
        }
    }

    #[test]
    fn latitude_bounded_by_inclination() {
        let eph = Ephemeris::generate(&leo_prop(), Epoch::J2000, 60.0, 86_400.0);
        for s in eph.samples() {
            assert!(
                s.geodetic().lat_deg().abs() <= 53.3,
                "{}",
                s.geodetic().lat_deg()
            );
        }
        // And it should actually visit high latitudes.
        let max = eph
            .samples()
            .iter()
            .map(|s| s.geodetic().lat_deg().abs())
            .fold(0.0, f64::max);
        assert!(max > 52.0, "{max}");
    }

    #[test]
    fn interpolation_matches_samples_and_midpoints() {
        let eph = Ephemeris::generate(&leo_prop(), Epoch::J2000, 30.0, 3600.0);
        // Exactly on a sample.
        let exact = eph.ecef_at(900.0);
        assert!((exact - eph.at_step(30).ecef).norm() < 1e-9);
        // Midpoint sagitta for LEO at 30 s cadence is ~950 m.
        let p = leo_prop();
        let at = Epoch::J2000.plus_seconds(915.0);
        let truth = qntn_geo::eci_to_ecef(p.propagate_to(at).position, at);
        assert!((eph.ecef_at(915.0) - truth).norm() < 1200.0);
    }

    #[test]
    fn interpolation_clamps_out_of_range() {
        let eph = Ephemeris::generate(&leo_prop(), Epoch::J2000, 30.0, 300.0);
        assert!((eph.ecef_at(-100.0) - eph.at_step(0).ecef).norm() < 1e-9);
        assert!((eph.ecef_at(1e9) - eph.at_step(eph.len() - 1).ecef).norm() < 1e-9);
    }

    #[test]
    fn parallel_generation_matches_sequential() {
        let props: Vec<Propagator> = crate::walker::paper_constellation(12)
            .into_iter()
            .map(|k| Propagator::new(k, Epoch::J2000, PerturbationModel::TwoBody))
            .collect();
        let par = Ephemeris::generate_many(&props, Epoch::J2000, 60.0, 7200.0);
        for (p, eph_par) in props.iter().zip(&par) {
            let seq = Ephemeris::generate(p, Epoch::J2000, 60.0, 7200.0);
            assert_eq!(seq.len(), eph_par.len());
            for (a, b) in seq.samples().iter().zip(eph_par.samples()) {
                assert_eq!(
                    a.ecef, b.ecef,
                    "parallel generation must be bitwise identical"
                );
            }
        }
    }

    #[test]
    fn csv_layout() {
        let eph = Ephemeris::generate(&leo_prop(), Epoch::J2000, 30.0, 90.0);
        let csv = eph.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4); // header + 3 rows
        assert!(lines[0].starts_with("t_s,lat_deg"));
        assert!(lines[1].starts_with("0.0,"));
        assert_eq!(lines[1].split(',').count(), 7);
    }

    #[test]
    fn ground_track_is_at_sea_level() {
        let eph = Ephemeris::generate(&leo_prop(), Epoch::J2000, 600.0, 7200.0);
        for g in eph.ground_track() {
            assert_eq!(g.alt_m, 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "cadence must be positive")]
    fn rejects_zero_step() {
        Ephemeris::generate(&leo_prop(), Epoch::J2000, 0.0, 100.0);
    }
}
