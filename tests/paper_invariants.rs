//! Cross-crate invariants that the reproduction's fast paths rely on, and
//! end-to-end checks of the paper's qualitative claims.

use qntn::core::architecture::{AirGround, SpaceGround};
use qntn::core::experiments::fidelity::FidelityExperiment;
use qntn::core::scenario::Qntn;
use qntn::net::linkeval::{LinkEvaluator, SimConfig, PAPER_THRESHOLD};
use qntn::net::{entanglement, Host};
use qntn::orbit::PerturbationModel;
use qntn::routing::{dijkstra, DistanceVectorRouter, RouteMetric};

/// Inter-satellite links only reach the 0.7 threshold inside the vacuum
/// diffraction budget (~1150 km with 1.2 m apertures), which at the
/// paper's spacing happens only briefly around plane crossings (e.g.
/// Table II's "twins" (RAAN 0, ν 0) and (RAAN 180, ν 180) share a node
/// point). Footprints of satellites that close overlap almost completely,
/// which is why ISLs add no coverage over the Tennessee LANs.
#[test]
fn qualifying_isls_are_only_near_coincident_pairs() {
    // The vacuum diffraction budget: the longest range at which an ISL can
    // still qualify, computed from the channel model itself.
    let params = qntn::channel::params::FsoParams::ideal();
    let mut isl_reach_m = 0.0f64;
    for km in 1..4000 {
        let geom = qntn::channel::fso::FsoGeometry::downlink(
            1.2,
            500_000.0,
            1.2,
            500_000.0,
            km as f64 * 1000.0,
            0.0,
        );
        if qntn::channel::fso::FsoChannel::new(geom, params).transmissivity() >= PAPER_THRESHOLD {
            isl_reach_m = km as f64 * 1000.0;
        }
    }
    assert!(
        (900_000.0..1_500_000.0).contains(&isl_reach_m),
        "vacuum ISL reach {isl_reach_m}"
    );
    let ephemerides = SpaceGround::ephemerides(36, PerturbationModel::TwoBody);
    let config = SimConfig {
        isl_max_range_m: 1.0e7,
        ..SimConfig::default()
    };
    let evaluator = LinkEvaluator::new(config);
    let sats: Vec<Host> = ephemerides
        .into_iter()
        .enumerate()
        .map(|(i, e)| Host::satellite(format!("S{i}"), e, 1.2))
        .collect();
    let mut qualifying = 0usize;
    let mut evaluated = 0usize;
    for step in (0..2880).step_by(48) {
        for i in 0..sats.len() {
            for j in (i + 1)..sats.len() {
                if let Some(eta) = evaluator.fso_eta(&sats[i], &sats[j], step) {
                    evaluated += 1;
                    if eta >= PAPER_THRESHOLD {
                        qualifying += 1;
                        let range = sats[i].ecef_at(step).distance(sats[j].ecef_at(step));
                        assert!(
                            range <= isl_reach_m + 1_000.0,
                            "ISL {i}-{j} qualified at {:.0} km, beyond the {:.0} km vacuum budget",
                            range / 1000.0,
                            isl_reach_m / 1000.0
                        );
                    }
                }
            }
        }
    }
    assert!(
        evaluated > 0,
        "no ISL was ever within the evaluation cutoff"
    );
    let _ = qualifying; // may be zero at this sampling; the bound above is the claim
}

/// The paper's Algorithm 1 (distance-vector tables) and the Dijkstra
/// baseline agree on a *live* simulator graph, not just synthetic ones.
#[test]
fn algorithm1_matches_dijkstra_on_live_graph() {
    let scenario = Qntn::standard();
    let air = AirGround::new(&scenario, SimConfig::default());
    let graph = air.sim().active_graph_at(100);
    let metric = RouteMetric::PaperInverseEta;
    let dv = DistanceVectorRouter::build(&graph, metric);
    for src in [0, 5, 16] {
        for dst in [4, 15, 30, 31] {
            let a = dv.cost(src, dst);
            let b = dijkstra(&graph, src, dst, metric).map_or(f64::INFINITY, |r| r.cost);
            assert!(
                (a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
                "{src}->{dst}: dv {a} vs dijkstra {b}"
            );
        }
    }
}

/// Fidelity conventions bracket correctly on live distributions:
/// Jozsa ≤ end-to-end sqrt ≤ per-link mean, all in [0.5, 1].
#[test]
fn fidelity_conventions_bracket() {
    let scenario = Qntn::standard();
    let air = AirGround::new(&scenario, SimConfig::default());
    let graph = air.sim().active_graph_at(0);
    for (src, dst) in [(0usize, 16usize), (3, 30), (7, 1)] {
        let d = entanglement::distribute(&graph, src, dst, RouteMetric::PaperInverseEta)
            .expect("air-ground routes everything");
        assert!(d.fidelity_jozsa <= d.fidelity + 1e-12);
        assert!(d.fidelity <= d.mean_link_fidelity + 1e-12);
        assert!(d.fidelity >= 0.5 && d.mean_link_fidelity <= 1.0);
    }
}

/// The headline qualitative claim (Table III): air-ground dominates
/// space-ground on coverage, served requests and fidelity — under both
/// fidelity conventions.
#[test]
fn air_ground_dominates_space_ground() {
    let scenario = Qntn::standard();
    let config = SimConfig::default();
    let experiment = FidelityExperiment {
        sampled_steps: 10,
        requests_per_step: 30,
        ..FidelityExperiment::quick()
    };
    let air = FidelityExperiment::run_air_ground(&experiment, &AirGround::new(&scenario, config));
    let space = FidelityExperiment::run_space_ground(
        &experiment,
        &SpaceGround::new(&scenario, 36, config, PerturbationModel::TwoBody),
    );
    assert!(air.coverage_percent > space.coverage_percent);
    assert!(air.served_percent > space.served_percent);
    assert!(air.mean_fidelity > space.mean_fidelity);
    assert!(air.mean_link_fidelity > space.mean_link_fidelity);
}

/// Served percentage is at least the all-three-LAN coverage percentage:
/// a request only needs its *pair* of LANs connected (the reason the
/// paper's 57.75% served exceeds its 55.17% coverage).
#[test]
fn served_at_least_pairwise_coverage() {
    let scenario = Qntn::standard();
    let arch = SpaceGround::new(
        &scenario,
        36,
        SimConfig::default(),
        PerturbationModel::TwoBody,
    );
    let r = FidelityExperiment {
        sampled_steps: 30,
        requests_per_step: 30,
        ..FidelityExperiment::quick()
    }
    .run_space_ground(&arch);
    assert!(
        r.served_percent >= r.coverage_percent - 1e-9,
        "served {} < coverage {}",
        r.served_percent,
        r.coverage_percent
    );
}
