//! Ephemerides ("movement sheets").
//!
//! The paper records each satellite's position at 30-second intervals over
//! one day with STK, exports the result as a movement sheet, and replays it
//! inside the network simulator. [`Ephemeris`] is that artifact: a dense
//! table of (ECEF, geodetic) samples at a fixed cadence; sample `k` is the
//! state at `k as f64 * step_s` seconds after the start. Generation is
//! embarrassingly parallel across satellites ([`Ephemeris::generate_many`]
//! uses rayon) and deterministic.

use crate::propagator::Propagator;
use qntn_geo::{eci_to_ecef, Epoch, Geodetic, Vec3};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// One row of a movement sheet. Its time is implied by its row: sample `k`
/// of an [`Ephemeris`] is the state at `k as f64 * step_s` seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EphemerisSample {
    /// Earth-fixed position, metres.
    pub ecef: Vec3,
    /// Geodetic position (WGS-84).
    pub geodetic: Geodetic,
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
        assert!(step_s > 0.0, "cadence must be positive");
        assert!(duration_s > 0.0, "duration must be positive");
        let n = (duration_s / step_s).round() as usize;
        let samples = (0..n)
            .map(|k| Self::sample_at(propagator, start, k as f64 * step_s))
            .collect();
        Ephemeris {
            start,
            step_s,
            samples,
        }
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
        propagators
            .par_iter()
            .map(|p| Self::generate(p, start, step_s, duration_s))
            .collect()
    }

    fn sample_at(propagator: &Propagator, start: Epoch, t_s: f64) -> EphemerisSample {
        let at = start.plus_seconds(t_s);
        let state = propagator.propagate_to(at);
        let ecef = eci_to_ecef(state.position, at);
        EphemerisSample {
            ecef,
            geodetic: Geodetic::from_ecef_wgs84(ecef),
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
            .map(|s| s.geodetic.with_alt(0.0))
            .collect()
    }

    /// Render the sheet in the CSV layout the paper's STK export used:
    /// `t_s,lat_deg,lon_deg,alt_m,ecef_x,ecef_y,ecef_z` with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.samples.len() * 96 + 64);
        out.push_str("t_s,lat_deg,lon_deg,alt_m,ecef_x_m,ecef_y_m,ecef_z_m\n");
        for (k, s) in self.samples.iter().enumerate() {
            out.push_str(&format!(
                "{:.1},{:.6},{:.6},{:.1},{:.1},{:.1},{:.1}\n",
                k as f64 * self.step_s,
                s.geodetic.lat_deg(),
                s.geodetic.lon_deg(),
                s.geodetic.alt_m,
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

    fn leo_prop() -> Propagator {
        Propagator::new(
            Keplerian::circular(6_871_000.0, 53.0_f64.to_radians(), 0.3, 1.2),
            Epoch::J2000,
            PerturbationModel::TwoBody,
        )
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
            let want = Ephemeris::sample_at(&prop, Epoch::J2000, t_s);
            assert_eq!(*eph.at_step(k), want, "row {k}");
        }
    }

    #[test]
    fn altitude_stays_near_500_km() {
        let eph = Ephemeris::generate(&leo_prop(), Epoch::J2000, 300.0, 86_400.0);
        for (k, s) in eph.samples().iter().enumerate() {
            // WGS-84 altitude of a constant-radius orbit varies with latitude
            // by up to ~21 km (equatorial bulge) around the nominal 493-514.
            assert!(
                (470_000.0..540_000.0).contains(&s.geodetic.alt_m),
                "alt {} at t={}",
                s.geodetic.alt_m,
                k as f64 * eph.step_s()
            );
        }
    }

    #[test]
    fn latitude_bounded_by_inclination() {
        let eph = Ephemeris::generate(&leo_prop(), Epoch::J2000, 60.0, 86_400.0);
        for s in eph.samples() {
            assert!(
                s.geodetic.lat_deg().abs() <= 53.3,
                "{}",
                s.geodetic.lat_deg()
            );
        }
        // And it should actually visit high latitudes.
        let max = eph
            .samples()
            .iter()
            .map(|s| s.geodetic.lat_deg().abs())
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
