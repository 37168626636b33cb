//! Property tests over the synthetic-region generator and the fault
//! injection layer: every generated scenario must satisfy the structural
//! invariants the architectures rely on, and the faulted sweep and serve
//! paths must honour their determinism contract (engine and serving
//! kernel ≡ naive evaluator, served monotone non-increasing in intensity,
//! intensity 0 ≡ fault-free) for *arbitrary* fault seeds — not just the
//! hand-picked ones in unit tests.
//!
//! Case counts are small by default so `cargo test` stays fast; the
//! nightly CI job sets `PROPTEST_CASES=2048` to deepen every block.
//!
//! Two fixed regions close the file: the coverage experiments must count
//! exactly the steps the engine's census counts, where inter-satellite
//! links bridge distant cities and where sub-threshold campus fiber splits
//! a LAN.

use proptest::prelude::*;
use qntn::core::architecture::SpaceGround;
use qntn::core::experiments::fig6::CoverageSweep;
use qntn::core::experiments::night::NightOps;
use qntn::core::experiments::serve_batches;
use qntn::core::scenario::{Qntn, SyntheticRegion};
use qntn::geo::{haversine_m, Epoch, Geodetic, WGS84};
use qntn::net::faults::FaultModel;
use qntn::net::{
    ContactWindows, CoverageAnalyzer, Host, HostKind, QuantumNetworkSim, RequestWorkload,
    RetryOutcome, RetryPolicy, SimConfig, SweepEngine,
};
use qntn::orbit::{paper_constellation, Ephemeris, PerturbationModel, Propagator, Twilight};
use qntn::routing::RouteMetric;
use qntn::serve::{ingest, serve_full_with_holds, HoldPolicy, RawRequest};
use std::sync::Arc;

/// `ProptestConfig` with `n` cases, overridable via `PROPTEST_CASES`
/// (nightly CI runs this suite with `PROPTEST_CASES=2048`).
fn cases_or(n: u32) -> ProptestConfig {
    ProptestConfig::with_cases(proptest::test_runner::env_case_count().unwrap_or(n))
}

proptest! {
    #![proptest_config(cases_or(32))]

    #[test]
    fn generated_regions_are_structurally_sound(
        seed in any::<u64>(),
        cities in 2usize..6,
        nodes in 1usize..10,
        radius_km in 40.0..250.0f64,
    ) {
        let region = SyntheticRegion {
            cities,
            nodes_per_city: nodes,
            region_radius_m: radius_km * 1000.0,
            ..SyntheticRegion::tennessee_like()
        };
        let q = region.generate(seed);

        prop_assert_eq!(q.lans.len(), cities);
        prop_assert_eq!(q.node_count(), cities * nodes);

        let center = qntn::geo::Geodetic::from_deg(
            region.center_lat_deg,
            region.center_lon_deg,
            0.0,
        );
        for (i, lan) in q.lans.iter().enumerate() {
            // Campus compactness: nodes lie within the campus radius of the
            // city centre, so within 2R of the node centroid.
            let c = q.lan_centroid(i);
            for n in &lan.nodes {
                let d = haversine_m(*n, c, &WGS84);
                prop_assert!(d <= 2.0 * region.campus_radius_m + 50.0, "campus spread {d}");
                prop_assert!((n.alt_m - region.ground_alt_m).abs() < 1e-9);
            }
            // City inside the region (ring radius <= region radius + campus).
            let dc = haversine_m(c, center, &WGS84);
            prop_assert!(dc <= region.region_radius_m + region.campus_radius_m + 100.0);
        }

        // Cities mutually separated (ring placement guarantees it for
        // sane parameters: minimum arc at 0.6*radius and >= 2 cities).
        for i in 0..cities {
            for j in (i + 1)..cities {
                let d = haversine_m(q.lan_centroid(i), q.lan_centroid(j), &WGS84);
                prop_assert!(d > 5_000.0, "{i}-{j} too close: {d}");
            }
        }

        // HAP over the centroid, inside the region, at 30 km.
        prop_assert!((q.hap.alt_m - 30_000.0).abs() < 1e-9);
        let dh = haversine_m(q.hap.with_alt(0.0), center, &WGS84);
        prop_assert!(dh <= region.region_radius_m + 1_000.0);
    }

    #[test]
    fn generation_is_deterministic(seed in any::<u64>()) {
        let region = SyntheticRegion::tennessee_like();
        let a = region.generate(seed);
        let b = region.generate(seed);
        for (la, lb) in a.lans.iter().zip(&b.lans) {
            for (na, nb) in la.nodes.iter().zip(&lb.nodes) {
                prop_assert_eq!(na.lat, nb.lat);
                prop_assert_eq!(na.lon, nb.lon);
            }
        }
    }
}

/// A small hybrid simulator (three ground LANs, one HAP, `sats` paper-
/// constellation satellites) over `steps` 30-second steps — big enough to
/// exercise fiber, ground–air and ground–space links, small enough to
/// rebuild every proptest case.
fn fault_sim(sats: usize, steps: usize) -> QuantumNetworkSim {
    subset_sim(sats, 3, steps)
}

/// [`fault_sim`] with only the first `n_grounds` of the three ground
/// sites — the pruning differential below runs over ground *subsets*,
/// not just the full set.
fn subset_sim(sats: usize, n_grounds: usize, steps: usize) -> QuantumNetworkSim {
    let props: Vec<Propagator> = paper_constellation(sats)
        .into_iter()
        .map(|k| Propagator::new(k, Epoch::J2000, PerturbationModel::TwoBody))
        .collect();
    let ephs = Ephemeris::generate_many(&props, Epoch::J2000, 30.0, steps as f64 * 30.0);
    let grounds = [
        ("TTU-0", Geodetic::from_deg(36.1757, -85.5066, 300.0)),
        ("ORNL-0", Geodetic::from_deg(35.91, -84.3, 250.0)),
        ("EPB-0", Geodetic::from_deg(35.04159, -85.2799, 200.0)),
    ];
    let mut hosts: Vec<Host> = grounds[..n_grounds]
        .iter()
        .enumerate()
        .map(|(lan, &(name, site))| Host::ground(name, lan, site, 1.2))
        .collect();
    hosts.push(Host::hap(
        "HAP",
        Geodetic::from_deg(35.6692, -85.0662, 30_000.0),
        0.3,
    ));
    for (i, eph) in ephs.into_iter().enumerate() {
        hosts.push(Host::satellite(format!("SAT-{i:03}"), eph, 1.2));
    }
    QuantumNetworkSim::new(hosts, SimConfig::default(), steps, 30.0)
}

/// The window-precompute geometry of `sim`, extracted the way the
/// pipeline does it: ground sites then satellite ephemerides, host order.
fn window_geometry(sim: &QuantumNetworkSim) -> (Vec<Geodetic>, Vec<&Ephemeris>) {
    let lows = sim
        .hosts()
        .iter()
        .filter(|h| h.is_ground())
        .map(|h| h.geodetic_at(0))
        .collect();
    let ephs = sim
        .hosts()
        .iter()
        .filter_map(|h| match &h.kind {
            HostKind::Satellite { ephemeris } => Some(ephemeris),
            _ => None,
        })
        .collect();
    (lows, ephs)
}

proptest! {
    #![proptest_config(cases_or(8))]

    /// (d) Spatial pruning is bit-invisible: for arbitrary constellation
    /// sizes and ground subsets, the grid-pruned window precompute agrees
    /// with the exhaustive full scan at every `(sat, step, site)`, the
    /// Scenes built from each classify the same Candidate list, and the
    /// graphs — full and active, clean and faulted — match bit for bit.
    #[test]
    fn spatial_pruning_is_bit_invisible(
        sats in 1usize..7,
        n_grounds in 1usize..4,
        steps in 20usize..60,
        fault_seed in any::<u64>(),
        intensity in 0.0..4.0f64,
    ) {
        let sim = subset_sim(sats, n_grounds, steps);
        let (lows, ephs) = window_geometry(&sim);
        let pruned = ContactWindows::for_sim(&sim);
        let exhaustive = ContactWindows::compute_exhaustive(&lows, &ephs, steps);
        for sat in 0..sats {
            for step in 0..steps {
                for low in 0..lows.len() {
                    prop_assert_eq!(
                        pruned.visible(sat, step, low),
                        exhaustive.visible(sat, step, low),
                        "window disagreement at sat {}, step {}, site {}", sat, step, low
                    );
                }
            }
        }
        let faults = Arc::new(
            FaultModel::standard(fault_seed)
                .with_intensity(intensity)
                .compile(&sim),
        );
        let engines = [
            (
                SweepEngine::with_windows(&sim, pruned),
                SweepEngine::with_windows(&sim, exhaustive.clone()),
                "clean",
            ),
            (
                SweepEngine::new(&sim).with_faults(faults.clone()),
                SweepEngine::with_windows(&sim, exhaustive).with_faults(faults),
                "faulted",
            ),
        ];
        for (a, b, tag) in &engines {
            prop_assert_eq!(
                a.scene().candidates(),
                b.scene().candidates(),
                "{}: candidate classification diverged", tag
            );
            for step in (0..steps).step_by(7) {
                for (ga, gb, kind) in [
                    (a.graph_at(step), b.graph_at(step), "full"),
                    (a.active_graph_at(step), b.active_graph_at(step), "active"),
                ] {
                    prop_assert_eq!(
                        ga.edge_count(), gb.edge_count(),
                        "{} {} step {}", tag, kind, step
                    );
                    for ((ua, va, ea), (ub, vb, eb)) in ga.edges().zip(gb.edges()) {
                        prop_assert_eq!(
                            (ua, va), (ub, vb),
                            "{} {} step {}: edge order", tag, kind, step
                        );
                        prop_assert_eq!(
                            ea.to_bits(), eb.to_bits(),
                            "{} {} step {}: η bits on ({}, {})", tag, kind, step, ua, va
                        );
                    }
                }
            }
        }
    }

    /// (a) For an *arbitrary* fault schedule, the pruned engine and the
    /// naive per-step evaluator agree bit for bit: same graphs (edge order
    /// and η bit patterns), and the per-step serving kernel — at any
    /// worker count — reproduces the naive retry evaluator request for
    /// request.
    #[test]
    fn faulted_engine_matches_the_naive_evaluator(
        workers in 1usize..=8,
        fault_seed in any::<u64>(),
        workload_seed in any::<u64>(),
        intensity in 0.0..6.0f64,
        sats in 2usize..6,
    ) {
        let steps_total = 80;
        let sim = fault_sim(sats, steps_total);
        let faults = Arc::new(
            FaultModel::standard(fault_seed)
                .with_intensity(intensity)
                .compile(&sim),
        );
        let engine = SweepEngine::new(&sim).with_faults(faults.clone());
        let metric = RouteMetric::PaperInverseEta;
        for step in (0..steps_total).step_by(11) {
            let a = engine.graph_at(step);
            let b = sim.graph_at_with_faults(step, &faults);
            prop_assert_eq!(a.edge_count(), b.edge_count(), "step {}", step);
            for ((ua, va, ea), (ub, vb, eb)) in a.edges().zip(b.edges()) {
                prop_assert_eq!((ua, va), (ub, vb), "step {}: edge order", step);
                prop_assert_eq!(
                    ea.to_bits(), eb.to_bits(),
                    "step {}: η bits differ on ({}, {})", step, ua, va
                );
            }
        }
        let policy = RetryPolicy::standard();
        let workloads: Vec<(usize, RequestWorkload)> = (0..steps_total)
            .step_by(13)
            .map(|arrival| {
                let seed = workload_seed ^ (arrival as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                (arrival, RequestWorkload::generate(&sim, 8, seed))
            })
            .collect();
        let naive: Vec<Vec<RetryOutcome>> = workloads
            .iter()
            .map(|(arrival, w)| w.evaluate_with_retries(&sim, *arrival, metric, policy, &faults))
            .collect();
        let stream: Vec<RawRequest> = workloads
            .iter()
            .flat_map(|(arrival, w)| {
                w.requests.iter().map(|r| RawRequest {
                    src: r.src,
                    dst: r.dst,
                    arrival_step: *arrival,
                    deadline_steps: policy.deadline_steps,
                    priority: 0,
                })
            })
            .collect();
        let (queue, rejected) = ingest(sim.hosts().len(), sim.steps(), &stream);
        prop_assert!(rejected.is_empty());
        let engine = engine.with_workers(workers);
        let kernel =
            serve_full_with_holds(&engine, &queue, policy, metric, &HoldPolicy::disabled());
        prop_assert_eq!(kernel, naive.concat(), "{} workers", workers);
    }

    /// (a′) Arbitrary arrival steps — including ones at or past the end of
    /// the simulated day — never panic the retry evaluator: an out-of-range
    /// arrival has an empty attempt schedule and expires every request with
    /// zero attempts. (Regression: `attempt_steps` used to assert.)
    #[test]
    fn out_of_range_arrivals_expire_instead_of_panicking(
        workload_seed in any::<u64>(),
        arrival in any::<usize>(),
    ) {
        let sim = fault_sim(2, 40);
        let faults = qntn::net::faults::CompiledFaults::identity(sim.hosts().len(), sim.steps());
        let w = RequestWorkload::generate(&sim, 5, workload_seed);
        let outcomes = w.evaluate_with_retries(
            &sim,
            arrival,
            RouteMetric::PaperInverseEta,
            RetryPolicy::standard(),
            &faults,
        );
        prop_assert_eq!(outcomes.len(), 5);
        if arrival >= sim.steps() {
            prop_assert!(outcomes
                .iter()
                .all(|o| *o == RetryOutcome::Expired { attempts: 0 }));
        }
    }

    /// (b) Raising the intensity never serves *more* requests: the nested
    /// episode sampling makes every low-intensity schedule a subset of the
    /// high-intensity one, so served counts are monotone non-increasing.
    #[test]
    fn served_is_monotone_nonincreasing_in_intensity(
        fault_seed in any::<u64>(),
        lo in 0.0..4.0f64,
        delta in 0.0..4.0f64,
    ) {
        let sim = fault_sim(3, 60);
        let arrivals: Vec<usize> = (0..60).step_by(7).collect();
        let metric = RouteMetric::PaperInverseEta;
        let served = |intensity: f64| {
            let faults = Arc::new(
                FaultModel::standard(fault_seed)
                    .with_intensity(intensity)
                    .compile(&sim),
            );
            let engine = SweepEngine::new(&sim).with_faults(faults);
            serve_batches(&engine, &arrivals, 10, 2024, metric)
                .iter()
                .filter(|o| o.distribution().is_some())
                .count()
        };
        let (low, high) = (served(lo), served(lo + delta));
        prop_assert!(
            high <= low,
            "served rose with intensity: {} at {} vs {} at {}",
            high, lo + delta, low, lo
        );
    }

    /// (c) Intensity 0 is a *bit-for-bit* no-op for any fault seed: the
    /// compiled mask is the identity, the masked engine's graphs match the
    /// clean engine's down to the η bit patterns, and the request sweep's
    /// outcomes are equal.
    #[test]
    fn zero_intensity_reproduces_the_fault_free_run(
        fault_seed in any::<u64>(),
        workload_seed in any::<u64>(),
    ) {
        let sim = fault_sim(2, 60);
        let faults = Arc::new(
            FaultModel::standard(fault_seed)
                .with_intensity(0.0)
                .compile(&sim),
        );
        prop_assert!(faults.is_identity());
        let clean = SweepEngine::new(&sim);
        let masked = SweepEngine::new(&sim).with_faults(faults);
        for step in (0..60).step_by(9) {
            let a = clean.graph_at(step);
            let b = masked.graph_at(step);
            prop_assert_eq!(a.edge_count(), b.edge_count(), "step {}", step);
            for ((ua, va, ea), (ub, vb, eb)) in a.edges().zip(b.edges()) {
                prop_assert_eq!((ua, va), (ub, vb), "step {}: edge order", step);
                prop_assert_eq!(
                    ea.to_bits(), eb.to_bits(),
                    "step {}: η bits differ on ({}, {})", step, ua, va
                );
            }
        }
        let arrivals: Vec<usize> = (0..60).step_by(8).collect();
        let metric = RouteMetric::PaperInverseEta;
        prop_assert_eq!(
            serve_batches(&clean, &arrivals, 10, workload_seed, metric),
            serve_batches(&masked, &arrivals, 10, workload_seed, metric),
            "identity mask moved the request sweep's outcomes"
        );
    }
}

/// Fig. 6's sweep and night-ops' nominal coverage at `n` satellites over
/// `scenario` equal the engine's census of the same shell, which covers
/// `covered_steps` steps.
fn assert_coverage_matches_the_census(scenario: &Qntn, n: usize, covered_steps: usize) {
    let config = SimConfig::default();
    let model = PerturbationModel::TwoBody;
    let census = CoverageAnalyzer::analyze(SpaceGround::new(scenario, n, config, model).sim());
    let covered = census.connected.iter().filter(|&&c| c).count();
    assert_eq!(covered, covered_steps, "the census moved");
    let sweep = CoverageSweep::run(scenario, config, &[n], model);
    let point = sweep.final_point();
    assert_eq!(
        (point.coverage_percent, point.intervals),
        (census.percent(), census.interval_count()),
        "Fig. 6 against the census"
    );
    let night = NightOps {
        twilight: Twilight::Astronomical,
        satellites: n,
    }
    .run(scenario, config);
    assert_eq!(
        night.space_nominal_percent.to_bits(),
        census.percent().to_bits(),
        "night-ops nominal coverage against the census"
    );
}

#[test]
fn coverage_counts_isl_bridged_steps() {
    // Cities up to 900 km apart: at 108 satellites, ten of the covered
    // steps are covered only through inter-satellite links.
    let region = SyntheticRegion {
        region_radius_m: 900_000.0,
        ..SyntheticRegion::tennessee_like()
    };
    assert_coverage_matches_the_census(&region.generate(42), 108, 149);
}

#[test]
fn coverage_respects_lans_split_by_campus_fiber() {
    // 20 km campuses: some campus fiber falls below threshold, so a
    // satellite that reaches one node of a LAN does not reach the rest,
    // and two steps that a per-LAN view counts are not covered.
    let region = SyntheticRegion {
        campus_radius_m: 20_000.0,
        ..SyntheticRegion::tennessee_like()
    };
    assert_coverage_matches_the_census(&region.generate(7), 54, 816);
}
