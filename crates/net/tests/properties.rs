//! Property-based tests for the network simulator.

use proptest::prelude::*;
use qntn_channel::fso::{FsoChannel, FsoGeometry};
use qntn_geo::{Epoch, Geodetic};
use qntn_net::capacity::CapacityModel;
use qntn_net::requests::{sample_steps, RetryPolicy};
use qntn_net::{Host, QuantumNetworkSim, SimConfig};
use qntn_net::{SweepEngine, SweepScratch};
use qntn_orbit::{Ephemeris, Keplerian, PerturbationModel, Propagator, EARTH_RADIUS_EQ_M};
use qntn_routing::{Graph, RouteMetric};
use qntn_serve::{ingest, serve_overload, HoldPolicy, OverloadPolicy, RawRequest};

/// A small HAP network with `n_a`/`n_b` ground nodes per LAN at randomized
/// (but Tennessee-plausible) positions.
fn hap_network(n_a: usize, n_b: usize, seed: u64) -> QuantumNetworkSim {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut hosts = Vec::new();
    for k in 0..n_a {
        hosts.push(Host::ground(
            format!("A-{k}"),
            0,
            Geodetic::from_deg(36.17 + next() * 0.01, -85.51 + next() * 0.01, 300.0),
            1.2,
        ));
    }
    for k in 0..n_b {
        hosts.push(Host::ground(
            format!("B-{k}"),
            1,
            Geodetic::from_deg(35.91 + next() * 0.01, -84.30 + next() * 0.01, 250.0),
            1.2,
        ));
    }
    hosts.push(Host::hap(
        "HAP",
        Geodetic::from_deg(35.6692, -85.0662, 30_000.0),
        0.3,
    ));
    QuantumNetworkSim::new(hosts, SimConfig::default(), 4, 30.0)
}

/// Steps of the ISL property's satellite sheets.
const ISL_STEPS: usize = 40;

/// A satellite on a circular shell `alt_m` above the equatorial radius,
/// sampled every 30 s for [`ISL_STEPS`] steps.
fn shell_satellite(
    alt_m: f64,
    inc_deg: f64,
    raan_deg: f64,
    anomaly_deg: f64,
    aperture_m: f64,
) -> Host {
    let elements = Keplerian::circular(
        EARTH_RADIUS_EQ_M + alt_m,
        inc_deg.to_radians(),
        raan_deg.to_radians(),
        anomaly_deg.to_radians(),
    );
    let prop = Propagator::new(elements, Epoch::J2000, PerturbationModel::TwoBody);
    let sheet = Ephemeris::generate(&prop, Epoch::J2000, 30.0, ISL_STEPS as f64 * 30.0);
    Host::satellite("SAT", sheet, aperture_m)
}

/// The ISL η with exact altitudes: `fso_eta`'s range test, then the
/// vacuum budget over the WGS-84 inverse of each endpoint's position.
fn exact_isl_eta(sim: &QuantumNetworkSim, a: &Host, b: &Host, step: usize) -> Option<f64> {
    let config = sim.evaluator().config();
    let (pa, pb) = (a.ecef_at(step), b.ecef_at(step));
    let range = pa.distance(pb);
    if range > config.isl_max_range_m || range <= 0.0 {
        return None;
    }
    let alt = |p| Geodetic::from_ecef_wgs84(p).alt_m;
    let geom = FsoGeometry::downlink(
        a.aperture_m,
        alt(pa),
        b.aperture_m,
        alt(pb),
        range,
        std::f64::consts::FRAC_PI_2,
    );
    Some(FsoChannel::new(geom, config.fso).transmissivity())
}

/// `ProptestConfig` with `n` cases, overridable via `PROPTEST_CASES`
/// (nightly CI runs this suite with `PROPTEST_CASES=2048`).
fn cases_or(n: u32) -> ProptestConfig {
    ProptestConfig::with_cases(proptest::test_runner::env_case_count().unwrap_or(n))
}

proptest! {
    #![proptest_config(cases_or(24))]

    #[test]
    fn graph_construction_is_sane(n_a in 1usize..5, n_b in 1usize..5, seed in any::<u64>()) {
        let sim = hap_network(n_a, n_b, seed);
        let g = sim.graph_at(0);
        prop_assert_eq!(g.node_count(), n_a + n_b + 1);
        // Fiber mesh per LAN + one HAP link per ground node.
        let expect_fiber = n_a * (n_a - 1) / 2 + n_b * (n_b - 1) / 2;
        prop_assert_eq!(g.edge_count(), expect_fiber + n_a + n_b);
        // All transmissivities in range.
        for (_, _, eta) in g.edges() {
            prop_assert!((0.0..=1.0).contains(&eta));
        }
    }

    #[test]
    fn thresholding_monotone_on_live_graphs(n_a in 1usize..4, n_b in 1usize..4, seed in any::<u64>()) {
        let sim = hap_network(n_a, n_b, seed);
        let g = sim.graph_at(0);
        let mut prev_edges = usize::MAX;
        for t in [0.0, 0.5, 0.7, 0.9, 0.99] {
            let e = g.thresholded(t).edge_count();
            prop_assert!(e <= prev_edges);
            prev_edges = e;
        }
    }

    #[test]
    fn served_requests_have_valid_paths(n_a in 1usize..4, n_b in 1usize..4, seed in any::<u64>()) {
        let sim = hap_network(n_a, n_b, seed);
        let g = sim.active_graph_at(0);
        let hap = n_a + n_b;
        for src in 0..n_a {
            let dst = n_a; // first B node
            if let Some(d) = qntn_net::entanglement::distribute(&g, src, dst, RouteMetric::PaperInverseEta) {
                // Fidelity laws.
                prop_assert!(d.fidelity >= 0.5 && d.fidelity <= 1.0);
                prop_assert!(d.fidelity_jozsa <= d.fidelity + 1e-12);
                prop_assert!(d.mean_link_fidelity + 1e-12 >= d.fidelity);
                // Inter-LAN routes must traverse the HAP.
                prop_assert!(d.path.contains(&hap), "path {:?}", d.path);
            }
        }
    }

    /// Finite capacity can only cost service: a single-attempt batch on
    /// the HAP star, admitted by the serving kernel's coupled driver,
    /// never serves more than under budgets no request can exhaust, and
    /// doubling the pair rate never serves fewer.
    #[test]
    fn capacity_never_serves_more_than_ideal(
        n_a in 2usize..4,
        n_b in 2usize..4,
        seed in any::<u64>(),
        rate in 0.001f64..10.0,
    ) {
        let sim = hap_network(n_a, n_b, seed);
        let stream: Vec<RawRequest> = (0..n_a)
            .flat_map(|a| (0..n_b).map(move |b| RawRequest {
                src: a,
                dst: n_a + b,
                arrival_step: 0,
                deadline_steps: 0,
                priority: 0,
            }))
            .collect();
        let (queue, _) = ingest(sim.hosts().len(), sim.steps(), &stream);
        let engine = SweepEngine::new(&sim);
        let served = |attempt_rate_hz: f64| {
            serve_overload(
                &engine,
                &queue,
                RetryPolicy::none(),
                RouteMetric::PaperInverseEta,
                Some(CapacityModel { attempt_rate_hz, window_s: 30.0 }),
                &HoldPolicy::disabled(),
                &OverloadPolicy::disabled(),
            )
            .served_count()
        };
        let constrained = served(rate);
        prop_assert!(constrained <= served(1e9));
        // Monotone in rate: doubling the rate cannot reduce service.
        prop_assert!(served(rate * 2.0) >= constrained);
    }

    /// The ISL evaluator decides space-only paths from a geocentric
    /// altitude bound when it can: that is a shortcut, never a semantic.
    /// Over random shells, with equal and unequal apertures and a
    /// satellite at about 150 km whose bound must fall back to the exact
    /// altitudes, `fso_eta` and the engine's ISL range gate (the two
    /// callers of the ISL evaluator) give the exact-altitude η bit for
    /// bit. The shells lie within ±15 km of one altitude, closer than the
    /// 21 km the bound can undershoot by, so bound and exact altitudes
    /// often order a pair differently.
    #[test]
    fn isl_eta_equals_the_exact_altitude_evaluation(
        base in 300_000.0f64..1_500_000.0,
        shells in proptest::collection::vec(
            (-15_000.0f64..15_000.0, 0.0f64..180.0, 0.0f64..360.0, 0.0f64..360.0),
            2..6,
        ),
        low in (140_000.0f64..160_000.0, 0.0f64..360.0),
        equal_apertures in any::<bool>(),
        step in 0usize..ISL_STEPS,
    ) {
        let aperture = |i: usize| if equal_apertures { 1.2 } else { [1.2, 0.5][i % 2] };
        let mut hosts: Vec<Host> = shells
            .iter()
            .enumerate()
            .map(|(i, &(dh, inc, raan, nu))| shell_satellite(base + dh, inc, raan, nu, aperture(i)))
            .collect();
        // The low satellite shares the first shell's plane.
        let (_, inc, raan, _) = shells[0];
        hosts.push(shell_satellite(low.0, inc, raan, low.1, aperture(hosts.len())));
        let config = SimConfig {
            isl_max_range_m: 1.0e8,
            ..SimConfig::default()
        };
        let sim = QuantumNetworkSim::new(hosts, config, ISL_STEPS, 30.0);
        let hosts = sim.hosts();
        let engine = SweepEngine::new(&sim);
        let mut scratch = SweepScratch::default();
        engine.active_graph_into(step, &mut scratch);
        let mut linked = 0;
        for a in 0..hosts.len() {
            for b in (a + 1)..hosts.len() {
                let exact = exact_isl_eta(&sim, &hosts[a], &hosts[b], step);
                let got = sim.evaluator().fso_eta(&hosts[a], &hosts[b], step);
                prop_assert_eq!(got.map(f64::to_bits), exact.map(f64::to_bits), "fso_eta {} {}", a, b);
                linked += usize::from(exact.is_some());
            }
        }
        let mut gated = 0;
        for (a, b, eta) in scratch.full.edges() {
            let exact = exact_isl_eta(&sim, &hosts[a], &hosts[b], step);
            prop_assert_eq!(Some(eta.to_bits()), exact.map(f64::to_bits), "gate {} {}", a, b);
            gated += 1;
        }
        prop_assert_eq!(gated, linked);
    }

    #[test]
    fn sample_steps_properties(total in 1usize..5000, count in 1usize..200) {
        let s = sample_steps(total, count);
        prop_assert!(!s.is_empty());
        prop_assert!(s.len() <= count.max(1));
        prop_assert!(s.windows(2).all(|w| w[1] > w[0]), "strictly increasing");
        prop_assert!(*s.last().unwrap() < total);
        prop_assert_eq!(s[0], 0);
    }

    #[test]
    fn lan_interconnection_matches_componentry(n_a in 1usize..4, n_b in 1usize..4, seed in any::<u64>()) {
        let sim = hap_network(n_a, n_b, seed);
        let g = sim.active_graph_at(0);
        let inter = sim.lans_interconnected(&g);
        // Manual check via components.
        let labels = g.components();
        let manual = (0..n_a).any(|a| (0..n_b).any(|b| labels[a] == labels[n_a + b]));
        prop_assert_eq!(inter, manual);
    }

    #[test]
    fn empty_threshold_graph_disconnects(n_a in 1usize..4, n_b in 1usize..4, seed in any::<u64>()) {
        let sim = hap_network(n_a, n_b, seed);
        let g = sim.graph_at(0).thresholded(1.1_f64.min(1.0));
        // Threshold 1.0 keeps only perfect links; no FSO link is exactly 1.
        let empty = Graph::with_nodes(g.node_count());
        let _ = empty;
        prop_assert!(!sim.lans_interconnected(&g) || g.edge_count() > 0);
    }
}
