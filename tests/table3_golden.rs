//! Golden regression tests pinning the Table III reproduction.
//!
//! PR 1 made the sweep fast; these tests make it *safe to keep making it
//! fast*: the headline numbers (coverage %, served %, mean fidelity for
//! the 6/54/108-satellite constellations and the HAP) are pinned to the
//! values this repository reproduces, within ±0.01. Any perf refactor
//! that silently changes a graph, a workload draw, or an aggregation will
//! trip these before it ships.
//!
//! Two tiers:
//! - The *quick* goldens always run. They use the exact `reproduce
//!   --quick` workload (20 sampled steps × 25 requests, seed 2024), small
//!   enough for every `cargo test`.
//! - The *paper* goldens (100 × 100, the full Table III workload) are
//!   `#[ignore]`d; the nightly CI job runs them with `--ignored`.
//!
//! The golden constants were measured from this repository, not copied
//! from the paper; the paper's published values (108 satellites →
//! 55.17 % coverage / 57.75 % served, air–ground → 100 % / 100 %) are
//! asserted as a looser sanity envelope in the paper-tier tests. A pinned
//! constant moving is not necessarily a bug — but it must be a *decision*,
//! with the constant updated in the same commit as the physics change.

use qntn::core::architecture::{AirGround, SpaceGround};
use qntn::core::experiments::fidelity::{ArchReport, FidelityExperiment};
use qntn::core::experiments::serve_batches;
use qntn::core::scenario::Qntn;
use qntn::net::faults::FaultModel;
use qntn::net::{SimConfig, SweepEngine};
use qntn::orbit::PerturbationModel;
use std::sync::Arc;

const TOL: f64 = 0.01;

/// One pinned row: (coverage %, served %, F end-to-end, F per-link).
struct Golden {
    coverage_percent: f64,
    served_percent: f64,
    mean_fidelity: f64,
    mean_link_fidelity: f64,
}

fn assert_matches(r: &ArchReport, g: &Golden, ctx: &str) {
    for (name, got, want) in [
        ("coverage_percent", r.coverage_percent, g.coverage_percent),
        ("served_percent", r.served_percent, g.served_percent),
        ("mean_fidelity", r.mean_fidelity, g.mean_fidelity),
        (
            "mean_link_fidelity",
            r.mean_link_fidelity,
            g.mean_link_fidelity,
        ),
    ] {
        assert!(
            (got - want).abs() <= TOL,
            "{ctx}: {name} drifted: got {got:.6}, pinned {want:.6} (±{TOL})"
        );
    }
}

fn quick_experiment() -> FidelityExperiment {
    // Identical to the `reproduce --quick` table3 workload.
    FidelityExperiment {
        sampled_steps: 20,
        requests_per_step: 25,
        ..FidelityExperiment::paper()
    }
}

/// Run the space–ground experiment for each prefix size, sharing one
/// 108-satellite ephemeris generation (exactly how the constellation
/// sweep does it).
fn space_reports(e: &FidelityExperiment, sizes: &[usize]) -> Vec<ArchReport> {
    let q = Qntn::standard();
    let config = SimConfig::default();
    let eph = SpaceGround::ephemerides(108, PerturbationModel::TwoBody);
    sizes
        .iter()
        .map(|&n| {
            let arch = SpaceGround::from_ephemerides(&q, eph[..n].to_vec(), config);
            e.run_space_ground(&arch)
        })
        .collect()
}

#[test]
fn quick_goldens_space_ground() {
    let pinned = [
        (
            6,
            Golden {
                coverage_percent: 5.0,
                served_percent: 5.0,
                mean_fidelity: 0.920738,
                mean_link_fidelity: 0.958663,
            },
        ),
        (
            54,
            Golden {
                coverage_percent: 30.0,
                served_percent: 31.8,
                mean_fidelity: 0.885469,
                mean_link_fidelity: 0.938879,
            },
        ),
        (
            108,
            Golden {
                coverage_percent: 55.0,
                served_percent: 56.8,
                mean_fidelity: 0.897905,
                mean_link_fidelity: 0.945860,
            },
        ),
    ];
    let sizes: Vec<usize> = pinned.iter().map(|(n, _)| *n).collect();
    let reports = space_reports(&quick_experiment(), &sizes);
    for ((n, golden), report) in pinned.iter().zip(&reports) {
        assert_matches(report, golden, &format!("space-ground, {n} sats (quick)"));
    }
}

#[test]
fn quick_goldens_air_ground() {
    let q = Qntn::standard();
    let r = quick_experiment().run_air_ground(&AirGround::standard(&q));
    assert_matches(
        &r,
        &Golden {
            coverage_percent: 100.0,
            served_percent: 100.0,
            mean_fidelity: 0.985867,
            mean_link_fidelity: 0.992883,
        },
        "air-ground (quick)",
    );
}

#[test]
fn zero_intensity_faults_leave_the_quick_goldens_byte_identical() {
    // The acceptance criterion made executable: with `FaultModel::none()`
    // attached, the engine's graphs — and therefore every downstream
    // artifact — are byte-identical to the fault-free run. Checked here on
    // the golden workload's own simulators, down to the f64 bit patterns.
    let q = Qntn::standard();
    let config = SimConfig::default();
    let air = AirGround::standard(&q);
    let eph = SpaceGround::ephemerides(12, PerturbationModel::TwoBody);
    let space = SpaceGround::from_ephemerides(&q, eph, config);
    for (name, sim) in [("air", air.sim()), ("space-12", space.sim())] {
        let none = Arc::new(FaultModel::none().compile(sim));
        assert!(
            none.is_identity(),
            "{name}: zero intensity must be identity"
        );
        let clean = SweepEngine::new(sim);
        let masked = SweepEngine::new(sim).with_faults(none);
        for step in (0..sim.steps()).step_by(293) {
            let a = clean.graph_at(step);
            let b = masked.graph_at(step);
            assert_eq!(a.edge_count(), b.edge_count(), "{name} step {step}");
            for ((ua, va, ea), (ub, vb, eb)) in a.edges().zip(b.edges()) {
                assert_eq!((ua, va), (ub, vb), "{name} step {step}: edge order");
                assert_eq!(
                    ea.to_bits(),
                    eb.to_bits(),
                    "{name} step {step}: η bits differ on ({ua},{va})"
                );
            }
        }
        let steps: Vec<usize> = (0..sim.steps()).step_by(144).collect();
        let metric = qntn::routing::RouteMetric::PaperInverseEta;
        assert_eq!(
            serve_batches(&clean, &steps, 25, 2024, metric),
            serve_batches(&masked, &steps, 25, 2024, metric),
            "{name}: request outcomes must not move under an identity mask"
        );
    }
}

#[test]
#[ignore = "full paper workload (Table III at 100x100); run with --ignored"]
fn paper_goldens_space_ground() {
    // Paper Table III: 108 satellites -> 55.17% coverage, 57.75% served.
    // The reproduction lands within a few points (sampled-step coverage,
    // independent workload draws); the tight ±0.01 pin is against the
    // repository's own measured values.
    let pinned = [
        (
            6,
            Golden {
                coverage_percent: 4.0,
                served_percent: 4.0,
                mean_fidelity: 0.901429,
                mean_link_fidelity: 0.947938,
            },
        ),
        (
            54,
            Golden {
                coverage_percent: 26.0,
                served_percent: 26.96,
                mean_fidelity: 0.895524,
                mean_link_fidelity: 0.944510,
            },
        ),
        (
            108,
            Golden {
                coverage_percent: 58.0,
                served_percent: 59.85,
                mean_fidelity: 0.895077,
                mean_link_fidelity: 0.944254,
            },
        ),
    ];
    let sizes: Vec<usize> = pinned.iter().map(|(n, _)| *n).collect();
    let reports = space_reports(&FidelityExperiment::paper(), &sizes);
    for ((n, golden), report) in pinned.iter().zip(&reports) {
        assert_matches(report, golden, &format!("space-ground, {n} sats (paper)"));
    }
    // Sanity envelope against the published Table III.
    let r108 = reports.last().unwrap();
    assert!(
        (r108.coverage_percent - 55.17).abs() < 5.0,
        "coverage far from the paper's 55.17%: {}",
        r108.coverage_percent
    );
    assert!(
        (r108.served_percent - 57.75).abs() < 5.0,
        "served far from the paper's 57.75%: {}",
        r108.served_percent
    );
}

#[test]
#[ignore = "full paper workload (Table III at 100x100); run with --ignored"]
fn paper_goldens_air_ground() {
    // Paper Table III: air-ground -> 100% coverage, 100% served, F = 0.98.
    let q = Qntn::standard();
    let r = FidelityExperiment::paper().run_air_ground(&AirGround::standard(&q));
    assert_matches(
        &r,
        &Golden {
            coverage_percent: 100.0,
            served_percent: 100.0,
            mean_fidelity: 0.985871,
            mean_link_fidelity: 0.992885,
        },
        "air-ground (paper)",
    );
    assert!(
        (r.mean_fidelity - 0.98).abs() < TOL,
        "paper quotes F = 0.98"
    );
}
