//! Demand-alignment extension: does the network work when users want it?
//!
//! Coverage percentages weight every minute of the day equally; real
//! traffic does not. This experiment weights each time step by a diurnal
//! demand profile (peaking in local business hours) and reports
//! *demand-weighted* availability. The punchline combines two earlier
//! findings: satellite coverage is roughly uniform in time, so weighting
//! barely moves it — but darkness-gated quantum links (the `night`
//! extension) are **anti-correlated** with business-hours demand, so a
//! night-only quantum service covers almost none of the weighted demand.

use crate::architecture::{default_epoch, SpaceGround};
use crate::experiments::night::dark_mask;
use crate::scenario::Qntn;
use qntn_net::{SimConfig, SweepEngine};
use qntn_orbit::ephemeris::PAPER_STEP_S;
use qntn_orbit::{PerturbationModel, Twilight};
use serde::{Deserialize, Serialize};

/// Tennessee is UTC−5 in summer (CDT in the middle/eastern-CST split; we
/// use a single offset for the region's demand clock).
pub const LOCAL_UTC_OFFSET_H: f64 = -5.0;

/// A diurnal demand profile: relative request intensity at local hour `h`.
///
/// A raised cosine peaking at 14:00 local, floored at 10 % overnight —
/// the standard shape of enterprise traffic.
pub fn business_hours_demand(local_hour: f64) -> f64 {
    let phase = (local_hour - 14.0) / 24.0 * std::f64::consts::TAU;
    (0.55 + 0.45 * phase.cos()).max(0.1)
}

/// Demand-weighted availability of a per-step availability mask.
pub fn demand_weighted_percent(available: &[bool], step_s: f64) -> f64 {
    let epoch = default_epoch();
    let mut served = 0.0;
    let mut total = 0.0;
    for (k, &up) in available.iter().enumerate() {
        let at = epoch.plus_seconds(k as f64 * step_s);
        // Hours since local midnight.
        let utc_h = (at.as_jd() + 0.5).fract() * 24.0;
        let local_h = (utc_h + LOCAL_UTC_OFFSET_H).rem_euclid(24.0);
        let w = business_hours_demand(local_h);
        total += w;
        if up {
            served += w;
        }
    }
    100.0 * served / total
}

/// The report: unweighted vs demand-weighted availability, with and
/// without darkness gating.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DemandReport {
    pub satellites: usize,
    /// Space-ground: plain coverage %, demand-weighted %.
    pub space_percent: f64,
    pub space_weighted_percent: f64,
    /// Night-gated space-ground, demand-weighted.
    pub space_night_weighted_percent: f64,
    /// Night-gated air-ground (= the dark mask), demand-weighted.
    pub air_night_weighted_percent: f64,
}

/// Run the analysis at one constellation size.
pub fn analyze(scenario: &Qntn, config: SimConfig, satellites: usize) -> DemandReport {
    let arch = SpaceGround::new(scenario, satellites, config, PerturbationModel::TwoBody);
    let flags = SweepEngine::new(arch.sim()).connectivity_flags();
    let dark = dark_mask(scenario, Twilight::Astronomical);
    let gated: Vec<bool> = flags.iter().zip(&dark).map(|(&c, &d)| c && d).collect();

    let plain = 100.0 * flags.iter().filter(|&&b| b).count() as f64 / flags.len() as f64;
    DemandReport {
        satellites,
        space_percent: plain,
        space_weighted_percent: demand_weighted_percent(&flags, PAPER_STEP_S),
        space_night_weighted_percent: demand_weighted_percent(&gated, PAPER_STEP_S),
        air_night_weighted_percent: demand_weighted_percent(&dark, PAPER_STEP_S),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_profile_shape() {
        // Peak at 14:00, trough overnight, floor respected.
        assert!((business_hours_demand(14.0) - 1.0).abs() < 1e-12);
        assert!(business_hours_demand(2.0) <= business_hours_demand(10.0));
        for h in 0..24 {
            let d = business_hours_demand(f64::from(h));
            assert!((0.1..=1.0).contains(&d), "h={h}: {d}");
        }
        assert!(business_hours_demand(2.0) >= 0.1);
    }

    #[test]
    fn weighting_identities() {
        // Always-available -> 100% regardless of weighting; never -> 0%.
        assert!((demand_weighted_percent(&vec![true; 2880], 30.0) - 100.0).abs() < 1e-9);
        assert!(demand_weighted_percent(&vec![false; 2880], 30.0) < 1e-9);
    }

    #[test]
    fn night_availability_is_demand_suppressed() {
        // A mask that is up only when it's dark scores *below* its
        // unweighted fraction under a business-hours demand profile.
        let epoch = default_epoch();
        let steps = 2880;
        let dark: Vec<bool> = (0..steps)
            .map(|k| {
                let at = epoch.plus_seconds(k as f64 * 30.0);
                Twilight::Astronomical.is_dark(qntn_geo::Geodetic::from_deg(36.0, -85.0, 300.0), at)
            })
            .collect();
        let unweighted = 100.0 * dark.iter().filter(|&&d| d).count() as f64 / steps as f64;
        let weighted = demand_weighted_percent(&dark, 30.0);
        assert!(
            weighted < unweighted,
            "night service should lose under daytime demand: {weighted} vs {unweighted}"
        );
    }

    #[test]
    fn satellite_coverage_is_roughly_demand_neutral() {
        // Satellite passes are spread across the day, so weighting moves
        // coverage by only a few points.
        let q = Qntn::standard();
        let r = analyze(&q, SimConfig::default(), 18);
        assert!(
            (r.space_weighted_percent - r.space_percent).abs() < 5.0,
            "weighted {} vs plain {}",
            r.space_weighted_percent,
            r.space_percent
        );
        // And the night-gated weighted number is far below the plain one.
        assert!(r.space_night_weighted_percent < r.space_percent);
        assert!(r.air_night_weighted_percent < 40.0);
    }
}
