//! Property-based tests for the channel models.

use proptest::prelude::*;
use qntn_channel::atmosphere::Atmosphere;
use qntn_channel::fiber::FiberChannel;
use qntn_channel::fso::{FsoBatch, FsoChannel, FsoGeometry};
use qntn_channel::params::{ElevationMode, FsoParams};
use qntn_channel::turbulence::TurbulenceProfile;
use qntn_channel::units::{db_to_linear, linear_to_db, Db};

/// Proptest case count: `default`, or `PROPTEST_CASES` when set (the
/// nightly workflow turns it up).
fn cases_or(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `FsoParams` anywhere in the domain the network's `SimConfig::validate`
/// accepts: positive wavelength and waist ratio, η_eff in (0, 1], jitter,
/// extinction and turbulence at zero or above, and either elevation mode
/// (a fixed elevation in [−π/2, π/2]).
fn fso_params() -> impl Strategy<Value = FsoParams> {
    (
        (400e-9..2e-6f64, 0.2..1.5f64, 0.0..1.0f64),
        (0.0..1.0f64, 0.0..1e-4f64, 1_000.0..20_000.0f64),
        (0.0..20.0f64, 0.0..1e-13f64, 0.0..40.0f64),
        (any::<bool>(), -1.0..1.0f64),
    )
        .prop_map(
            |((wavelength_m, tx_waist_ratio, eff), (jitter, extinction, scale_h), turb, elev)| {
                FsoParams {
                    wavelength_m,
                    tx_waist_ratio,
                    receiver_efficiency: 1.0 - eff,
                    atmosphere: Atmosphere::new(extinction, scale_h),
                    turbulence: TurbulenceProfile {
                        scale: turb.0,
                        cn2_ground: turb.1,
                        wind_rms_m_s: turb.2,
                    },
                    elevation_mode: if elev.0 {
                        ElevationMode::Fixed(elev.1 * std::f64::consts::FRAC_PI_2)
                    } else {
                        ElevationMode::Geometric
                    },
                    // Zero on a third of the draws.
                    pointing_jitter_rad: (jitter - 1.0 / 3.0).max(0.0) * 3e-5,
                }
            },
        )
}

/// The diffraction-only bound `B(L) = (1 − e^{−2a_rx²/w_d(L)²})·η_eff` of a
/// geometry's apertures at `range_m`, in the budget's own float operations.
fn diffraction_bound(p: &FsoParams, geom: &FsoGeometry, range_m: f64) -> f64 {
    let w0 = p.tx_waist_ratio * geom.tx_aperture_m / 2.0;
    let z_r = std::f64::consts::PI * w0 * w0 / p.wavelength_m;
    let ratio = range_m / z_r;
    let w_diff = w0 * (1.0 + ratio * ratio).sqrt();
    let a_rx = geom.rx_aperture_m / 2.0;
    let eta_th = 1.0 - (-2.0 * a_rx * a_rx / (w_diff * w_diff)).exp();
    eta_th * p.receiver_efficiency
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases_or(256)))]

    /// The reach gate's premise. At any validated parameters, apertures,
    /// altitudes, elevation, range and Rytov variance, neither the scalar
    /// budget nor an `FsoBatch` row exceeds the diffraction-only bound B;
    /// past `reach_m` both B and every budget lie below the floor, and just
    /// short of it B is at the floor up to rounding. Floors are drawn
    /// anywhere in (0, 1], at η_eff, a decade or more under it, and a few
    /// ulps under it.
    #[test]
    fn diffraction_bound_caps_every_budget_and_fixes_the_reach(
        params in fso_params(),
        apertures in (0.05..2.5f64, 0.05..2.5f64),
        geometry in (0.0..600e3f64, 0.0..120e3f64, -1.6..1.6f64, 1.0..5e6f64),
        rytov in (any::<bool>(), 0.0..5.0f64),
        floor in (0usize..4, 0.0..1.0f64),
        past in (0.0..3.0f64, 0.0..1.0f64),
    ) {
        let (tx_alt, rx_alt, elev, range) = geometry;
        let eff = params.receiver_efficiency;
        let floor = match floor {
            (0, u) => 1.0 - u,
            (1, _) => eff,
            (2, u) => eff * (1.0 - 10f64.powf(-1.0 - 14.0 * u)),
            (_, u) => eff - (1.0 + 63.0 * u).floor() * f64::EPSILON,
        };
        let rytov = rytov.0.then_some(rytov.1);
        let budget = |range_m: f64| {
            let geom = FsoGeometry::downlink(apertures.0, tx_alt, apertures.1, rx_alt, range_m, elev);
            (geom, FsoChannel::new(geom, params).budget_with_rytov(rytov).eta_total())
        };
        let (geom, eta) = budget(range);
        let bound = diffraction_bound(&params, &geom, range);
        prop_assert!(eta <= bound, "budget {eta} above the bound {bound}");
        if !geom.is_space_only() {
            let effective = match params.elevation_mode {
                ElevationMode::Geometric => elev,
                ElevationMode::Fixed(e) => e,
            };
            let mut batch = FsoBatch::default();
            batch.push(&geom, effective, rytov.unwrap_or(0.0));
            batch.compute(&params);
            prop_assert!(batch.eta()[0] <= bound, "batch row {} above {bound}", batch.eta()[0]);
        }
        let reach = params.reach_m(geom.tx_aperture_m, geom.rx_aperture_m, floor);
        if floor >= eff {
            prop_assert_eq!(reach, f64::INFINITY);
        }
        if reach.is_finite() {
            let beyond = (reach * (1.0 + past.0)).max(1.0);
            let beyond = f64::from_bits(beyond.to_bits() + 1);
            let (geom, eta) = budget(beyond);
            let bound = diffraction_bound(&params, &geom, beyond);
            prop_assert!(bound < floor, "B = {bound} at {beyond} m, past the reach {reach} m");
            prop_assert!(eta < floor, "η = {eta} at {beyond} m, past the reach {reach} m");
            if reach > 0.0 {
                let short = reach * (1.0 - 1e-9 * past.1);
                let bound = diffraction_bound(&params, &geom, short);
                prop_assert!(bound >= floor - 1e-12, "B = {bound} short of the reach {reach} m");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn db_roundtrip(db in -60.0..20.0f64) {
        prop_assert!((linear_to_db(db_to_linear(Db::new(db))).value() - db).abs() < 1e-9);
    }

    #[test]
    fn fiber_eta_in_unit_interval(km in 0.0..500.0f64, att in 0.01..1.0f64) {
        let eta = FiberChannel::new(km * 1000.0, att).transmissivity();
        prop_assert!((0.0..=1.0).contains(&eta));
    }

    #[test]
    fn fiber_is_multiplicative(a_km in 0.0..100.0f64, b_km in 0.0..100.0f64) {
        let f = |km: f64| FiberChannel::paper(km * 1000.0).transmissivity();
        prop_assert!((f(a_km) * f(b_km) - f(a_km + b_km)).abs() < 1e-12);
    }

    #[test]
    fn fiber_threshold_inversion(att in 0.05..0.5f64, th in 0.1..0.99f64) {
        let l = FiberChannel::max_length_for_threshold(att, th);
        let eta = FiberChannel::new(l, att).transmissivity();
        prop_assert!((eta - th).abs() < 1e-9);
    }

    #[test]
    fn atmosphere_depth_additive_and_monotone(
        alpha in 1e-7..1e-4f64,
        h_mid in 1_000.0..100_000.0f64,
        h_top_extra in 1_000.0..500_000.0f64,
    ) {
        let a = Atmosphere::new(alpha, 6_600.0);
        let h_top = h_mid + h_top_extra;
        let whole = a.zenith_optical_depth(0.0, h_top);
        let split = a.zenith_optical_depth(0.0, h_mid) + a.zenith_optical_depth(h_mid, h_top);
        prop_assert!((whole - split).abs() < 1e-12 * whole.max(1e-30));
        // Deeper paths attenuate at least as much.
        prop_assert!(a.zenith_optical_depth(0.0, h_mid) <= whole + 1e-15);
    }

    #[test]
    fn atmosphere_transmissivity_monotone_in_elevation(
        alpha in 1e-7..1e-4f64,
        e1 in 0.1..1.2f64,
        de in 0.01..0.3f64,
    ) {
        let a = Atmosphere::new(alpha, 6_600.0);
        let lo = a.transmissivity(0.0, 500_000.0, e1);
        let hi = a.transmissivity(0.0, 500_000.0, e1 + de);
        prop_assert!(hi >= lo);
    }

    #[test]
    fn fso_eta_in_unit_interval(
        range_km in 10.0..3_000.0f64,
        elev in 0.1..1.57f64,
        tx_ap in 0.1..2.0f64,
        rx_ap in 0.1..2.0f64,
        tx_alt_km in 20.0..600.0f64,
    ) {
        let geom = FsoGeometry::downlink(
            tx_ap, tx_alt_km * 1000.0, rx_ap, 300.0, range_km * 1000.0, elev,
        );
        let eta = FsoChannel::new(geom, FsoParams::ideal()).transmissivity();
        prop_assert!((0.0..=1.0).contains(&eta), "{eta}");
        prop_assert!(eta.is_finite());
    }

    #[test]
    fn fso_monotone_in_range(
        elev in 0.3..1.5f64,
        r1_km in 100.0..1_000.0f64,
        dr_km in 10.0..1_000.0f64,
    ) {
        let link = |km: f64| {
            let geom = FsoGeometry::downlink(1.2, 500_000.0, 1.2, 300.0, km * 1000.0, elev);
            FsoChannel::new(geom, FsoParams::ideal()).transmissivity()
        };
        prop_assert!(link(r1_km) >= link(r1_km + dr_km) - 1e-12);
    }

    #[test]
    fn weather_only_degrades(
        weather in 1.0..40.0f64,
        range_km in 50.0..1_200.0f64,
        elev in 0.3..1.5f64,
    ) {
        let geom = FsoGeometry::downlink(1.2, 500_000.0, 1.2, 300.0, range_km * 1000.0, elev);
        let ideal = FsoChannel::new(geom, FsoParams::ideal()).transmissivity();
        let bad = FsoChannel::new(geom, FsoParams::ideal().with_weather(weather)).transmissivity();
        prop_assert!(bad <= ideal + 1e-12, "weather {weather}: {bad} > {ideal}");
    }

    #[test]
    fn bigger_receiver_never_hurts(
        range_km in 100.0..1_500.0f64,
        elev in 0.3..1.5f64,
        rx1 in 0.2..1.0f64,
        extra in 0.05..1.0f64,
    ) {
        let link = |rx: f64| {
            let geom = FsoGeometry::downlink(1.2, 500_000.0, rx, 300.0, range_km * 1000.0, elev);
            FsoChannel::new(geom, FsoParams::ideal()).transmissivity()
        };
        prop_assert!(link(rx1 + extra) >= link(rx1) - 1e-12);
    }

    #[test]
    fn budget_factors_bound_total(
        range_km in 50.0..2_000.0f64,
        elev in 0.15..1.5f64,
    ) {
        let geom = FsoGeometry::downlink(1.2, 500_000.0, 1.2, 300.0, range_km * 1000.0, elev);
        let b = FsoChannel::new(geom, FsoParams::ideal()).budget();
        let eta = b.eta_total();
        prop_assert!(eta <= b.eta_th + 1e-12);
        prop_assert!(eta <= b.eta_atm + 1e-12);
        prop_assert!(eta <= b.eta_eff + 1e-12);
        prop_assert!(b.turbulence_spread >= 1.0);
        prop_assert!(b.long_term_spot_m >= b.diffraction_spot_m - 1e-12);
    }
}
