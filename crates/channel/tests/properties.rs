//! Property-based tests for the channel models.

use proptest::prelude::*;
use qntn_channel::atmosphere::Atmosphere;
use qntn_channel::fiber::FiberChannel;
use qntn_channel::fso::{FsoChannel, FsoGeometry};
use qntn_channel::params::FsoParams;
use qntn_channel::units::{db_to_linear, linear_to_db, Db};

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
